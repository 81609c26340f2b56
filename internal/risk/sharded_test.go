package risk

// Merge-function tests: the shard merges must reproduce monolithic
// rows exactly on real (small) data, and must refuse shape or
// season-fact mismatches instead of merging garbage.

import (
	"reflect"
	"strings"
	"testing"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/census"
	"fivealarms/internal/conus"
	"fivealarms/internal/whp"
	"fivealarms/internal/wildfire"
)

// shardMergeFixture builds a small monolithic analyzer plus per-shard
// analyzers over a contiguous split of the same fleet.
type shardMergeFixture struct {
	mono    *Analyzer
	shards  []*Analyzer
	history []*wildfire.Season
	s2019   *wildfire.Season
}

func newShardMergeFixture(t *testing.T, cuts []int) *shardMergeFixture {
	t.Helper()
	w := conus.Build(conus.Config{Seed: 5, CellSizeM: 40000})
	m := whp.Build(w, w.Grid, whp.Config{})
	d := cellnet.Generate(w, cellnet.GenConfig{Seed: 5, Total: 4000})
	c := census.Synthesize(w, 5)
	sim := wildfire.NewSimulator(w, m)
	f := &shardMergeFixture{
		mono:    New(w, m, d, c),
		history: simulateHistory(t, sim, 5, 3),
		s2019:   wildfire.Simulate2019(sim, 5, 3),
	}
	lo := 0
	for _, hi := range append(cuts, d.Len()) {
		part := cellnet.NewDataset(w, append([]cellnet.Transceiver(nil), d.T[lo:hi]...))
		f.shards = append(f.shards, New(w, m, part, c))
		lo = hi
	}
	return f
}

// TestMergeShardOverlaysMatchesMonolithic: partial products from a
// contiguous fleet split — including one empty shard — merge to exactly
// the monolithic analyzer's rows, floats included.
func TestMergeShardOverlaysMatchesMonolithic(t *testing.T) {
	f := newShardMergeFixture(t, []int{0, 900, 2201}) // first shard empty
	parts := make([]*ShardOverlay, len(f.shards))
	for i, a := range f.shards {
		parts[i] = a.ShardOverlay(f.history, f.s2019)
	}
	t1, v, err := MergeShardOverlays(parts)
	if err != nil {
		t.Fatalf("MergeShardOverlays: %v", err)
	}
	if want := f.mono.HistoricalOverlay(f.history); !reflect.DeepEqual(t1, want) {
		t.Errorf("merged Table 1 differs from monolithic:\n got %+v\nwant %+v", t1, want)
	}
	if want := f.mono.Validate(f.s2019); !reflect.DeepEqual(v, want) {
		t.Errorf("merged validation differs from monolithic:\n got %+v\nwant %+v", v, want)
	}
	rows := 0
	for _, p := range parts {
		rows += p.Rows
	}
	if rows != f.mono.Data.Len() {
		t.Errorf("shard rows sum to %d, fleet is %d", rows, f.mono.Data.Len())
	}
}

// TestMergeSingleShardIsIdentity: a one-shard merge returns the shard's
// own rows with ratios recomputed — identical to monolithic when the
// shard is the whole fleet.
func TestMergeSingleShardIsIdentity(t *testing.T) {
	f := newShardMergeFixture(t, nil)
	p := f.shards[0].ShardOverlay(f.history, f.s2019)
	t1, v, err := MergeShardOverlays([]*ShardOverlay{p})
	if err != nil {
		t.Fatalf("MergeShardOverlays: %v", err)
	}
	if want := f.mono.HistoricalOverlay(f.history); !reflect.DeepEqual(t1, want) {
		t.Errorf("single-shard Table 1 differs from monolithic")
	}
	if !reflect.DeepEqual(v, f.mono.Validate(f.s2019)) {
		t.Errorf("single-shard validation differs from monolithic")
	}
}

// TestMergeErrorPaths: empty inputs, nil parts, shape mismatches and
// season-fact disagreements are all rejected with descriptive errors.
func TestMergeErrorPaths(t *testing.T) {
	if _, _, err := MergeShardOverlays(nil); err == nil {
		t.Error("zero-shard merge succeeded")
	}
	if _, _, err := MergeShardOverlays([]*ShardOverlay{nil}); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("nil shard overlay: err = %v", err)
	}
	if _, err := MergeYearOverlays(nil); err == nil {
		t.Error("zero-shard Table 1 merge succeeded")
	}
	if _, err := MergeValidations(nil); err == nil {
		t.Error("zero-shard validation merge succeeded")
	}

	a := []YearOverlay{{Year: 2000, Fires: 3, AcresBurned: 10, TransceiversIn: 1}}
	if _, err := MergeYearOverlays([][]YearOverlay{a, {}}); err == nil {
		t.Error("season-count mismatch merged")
	}
	b := []YearOverlay{{Year: 2001, Fires: 3, AcresBurned: 10}}
	if _, err := MergeYearOverlays([][]YearOverlay{a, b}); err == nil || !strings.Contains(err.Error(), "season facts") {
		t.Errorf("year mismatch: err = %v", err)
	}
	c := []YearOverlay{{Year: 2000, Fires: 3, AcresBurned: 11}}
	if _, err := MergeYearOverlays([][]YearOverlay{a, c}); err == nil {
		t.Error("acres mismatch merged")
	}
}

// TestMergeRecomputesRatios: merged ratio fields come from the merged
// counts, not from summing or averaging the shard-local ratio garbage.
func TestMergeRecomputesRatios(t *testing.T) {
	a := []YearOverlay{{Year: 2000, Fires: 1, AcresBurned: 2e6, TransceiversIn: 3, PerMillionAcres: 999}}
	b := []YearOverlay{{Year: 2000, Fires: 1, AcresBurned: 2e6, TransceiversIn: 5, PerMillionAcres: -999}}
	got, err := MergeYearOverlays([][]YearOverlay{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].TransceiversIn != 8 || got[0].PerMillionAcres != 4 {
		t.Errorf("merged row = %+v, want 8 transceivers at 4 per million acres", got[0])
	}
}
