package fivealarms

// Band-count and snapshot warm-load tests: a study is observationally
// identical at any band count — same tables, same validation, same
// masks, same downstream analyses — with any mix of snapshot loading,
// and its ShardStats must report the shape honestly. The seeded
// band-count sweep lives in shard_conformance_test.go.

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// shardedTwin builds the stress config with n shards (plus any extra
// options) and fails the test on error.
func shardedTwin(t *testing.T, n int, extra ...Option) *Study {
	t.Helper()
	opts := append([]Option{WithConfig(stressCfg), WithShards(n)}, extra...)
	s, err := NewStudyWithOptions(opts...)
	if err != nil {
		t.Fatalf("sharded build (n=%d): %v", n, err)
	}
	return s
}

// TestShardedStudyMatchesMonolithic: every analysis fingerprint is
// byte-identical between the one-band study (Shards 0) and its
// multi-band twins.
func TestShardedStudyMatchesMonolithic(t *testing.T) {
	want := analysisFingerprints(mustStudy(stressCfg))
	for _, n := range []int{1, 3, 5} {
		got := analysisFingerprints(shardedTwin(t, n))
		for name, w := range want {
			if got[name] != w {
				t.Errorf("n=%d: %s differs from one band:\none band:\n%s\nn bands:\n%s", n, name, w, got[name])
			}
		}
	}
}

// TestShardedSeasonAccessors: at any band count the memoized History
// and Season2019 accessors serve the same simulated seasons.
func TestShardedSeasonAccessors(t *testing.T) {
	mono := mustStudy(stressCfg)
	sh := shardedTwin(t, 2)
	if got, want := len(sh.History()), len(mono.History()); got != want {
		t.Fatalf("2-band History has %d seasons, one-band %d", got, want)
	}
	for i, season := range sh.History() {
		if season.Year != mono.History()[i].Year || len(season.Mapped) != len(mono.History()[i].Mapped) {
			t.Errorf("season %d differs between the 2-band and one-band history", i)
		}
	}
	if sh.Season2019().Year != mono.Season2019().Year {
		t.Errorf("2-band 2019 season year %d", sh.Season2019().Year)
	}
}

// TestShardedMasksBitIdentical: a multi-band study's union masks match
// the one-band study's word for word (fingerprint, not just count).
func TestShardedMasksBitIdentical(t *testing.T) {
	mono := mustStudy(stressCfg)
	sh := shardedTwin(t, 4)
	if got, want := sh.HistoryUnionMask().Fingerprint(), mono.HistoryUnionMask().Fingerprint(); got != want {
		t.Errorf("history union fingerprint %#x != one-band %#x", got, want)
	}
	if got, want := sh.Season2019UnionMask().Fingerprint(), mono.Season2019UnionMask().Fingerprint(); got != want {
		t.Errorf("2019 union fingerprint %#x != one-band %#x", got, want)
	}
}

// TestShardedManyEmptyShards: more shards than grid rows leaves many
// bands empty (zero rows, zero transceivers). Empty shards must build,
// merge as no-ops, and leave the results untouched.
func TestShardedManyEmptyShards(t *testing.T) {
	mono := mustStudy(stressCfg)
	sh := shardedTwin(t, 300)
	rows, peak := sh.ShardStats()
	if len(rows) != 300 {
		t.Fatalf("ShardStats reported %d shards, want 300", len(rows))
	}
	total, empty := 0, 0
	for _, r := range rows {
		total += r
		if r == 0 {
			empty++
		}
	}
	if total != mono.Data.Len() {
		t.Errorf("shard rows sum to %d, fleet is %d", total, mono.Data.Len())
	}
	if empty == 0 {
		t.Errorf("expected empty shards at 300 bands over a %d-row grid", sh.World.Grid.NY)
	}
	if peak != 0 {
		t.Errorf("peak footprint %d, want 0: bands copy nothing", peak)
	}
	want := analysisFingerprints(mono)
	got := analysisFingerprints(sh)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s differs from one band with empty shards present", name)
		}
	}
}

// TestShardStats: a one-band study reports its whole fleet as one band;
// a 4-band one reports band-ordered row counts that sum to the fleet.
// Both report 0 bytes, since no band copies anything, and the returned
// slice is a private copy.
func TestShardStats(t *testing.T) {
	one := mustStudy(stressCfg)
	if rows, peak := one.ShardStats(); !slices.Equal(rows, []int{one.Data.Len()}) || peak != 0 {
		t.Fatalf("one-band ShardStats = (%v, %d), want ([%d], 0)", rows, peak, one.Data.Len())
	}
	sh := shardedTwin(t, 4)
	rows, peak := sh.ShardStats()
	total := 0
	for _, r := range rows {
		total += r
	}
	if len(rows) != 4 || total != sh.Data.Len() || peak != 0 {
		t.Fatalf("4-band ShardStats = (%v, %d), want 4 bands holding %d rows and 0 bytes", rows, peak, sh.Data.Len())
	}
	rows[0] = -1
	again, _ := sh.ShardStats()
	if again[0] == -1 {
		t.Fatal("ShardStats returned an aliased slice")
	}
}

// TestSnapshotWarmLoadBitIdentical: a study warm-loaded from a snapshot
// written by its own twin is indistinguishable from the cold build —
// with one band and with four on top of the warm load.
func TestSnapshotWarmLoadBitIdentical(t *testing.T) {
	cold := mustStudy(stressCfg)
	path := filepath.Join(t.TempDir(), "fleet.fa5c")
	if err := cold.WriteSnapshot(path); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	want := analysisFingerprints(cold)
	for _, shards := range []int{0, 4} {
		warm, err := NewStudyWithOptions(WithConfig(stressCfg), WithSnapshot(path), WithShards(shards))
		if err != nil {
			t.Fatalf("warm build (shards=%d): %v", shards, err)
		}
		if warm.Data.Len() != cold.Data.Len() {
			t.Fatalf("shards=%d: warm fleet %d rows, cold %d", shards, warm.Data.Len(), cold.Data.Len())
		}
		got := analysisFingerprints(warm)
		for name, w := range want {
			if got[name] != w {
				t.Errorf("shards=%d: %s differs between cold build and snapshot warm load", shards, name)
			}
		}
	}
}

// TestSnapshotLoadErrorsSurface: a missing or corrupt snapshot fails
// the build with an error naming the path — no partial Study escapes.
func TestSnapshotLoadErrorsSurface(t *testing.T) {
	s, err := NewStudyWithOptions(WithConfig(stressCfg), WithSnapshot(filepath.Join(t.TempDir(), "absent.fa5c")))
	if err == nil || s != nil {
		t.Fatalf("missing snapshot: study=%v err=%v", s, err)
	}

	bad := filepath.Join(t.TempDir(), "corrupt.fa5c")
	if err := os.WriteFile(bad, []byte("FA5Cnot really a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = NewStudyWithOptions(WithConfig(stressCfg), WithSnapshot(bad))
	if err == nil || s != nil {
		t.Fatalf("corrupt snapshot: study=%v err=%v", s, err)
	}
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("corrupt-snapshot error %q does not name the path", err)
	}
}

// TestWriteSnapshotErrors: an unwritable destination is reported and no
// partial file is left behind.
func TestWriteSnapshotErrors(t *testing.T) {
	s := mustStudy(stressCfg)
	path := filepath.Join(t.TempDir(), "no-such-dir", "fleet.fa5c")
	if err := s.WriteSnapshot(path); err == nil {
		t.Fatal("WriteSnapshot into a missing directory succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("partial snapshot left behind: stat err = %v", err)
	}
}

// TestValidateRejectsBadShards: out-of-range shard counts are
// configuration errors, reported by field.
func TestValidateRejectsBadShards(t *testing.T) {
	for _, n := range []int{-1, maxShards + 1} {
		cfg := stressCfg
		cfg.Shards = n
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Shards") {
			t.Errorf("Shards=%d: Validate() = %v, want a Shards error", n, err)
		}
		if _, err := NewStudyWithOptions(WithConfig(cfg)); err == nil {
			t.Errorf("Shards=%d: NewStudyWithOptions accepted it", n)
		}
	}
}
