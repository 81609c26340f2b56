package risk

// Merge-function tests: the band joins of any partition of the fleet
// must merge to the monolithic rows exactly on real (small) data, and
// the merges must refuse shape or season-fact mismatches instead of
// merging garbage.

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/census"
	"fivealarms/internal/conus"
	"fivealarms/internal/shard"
	"fivealarms/internal/whp"
	"fivealarms/internal/wildfire"
)

// shardMergeFixture is a small analyzer with its simulated seasons.
type shardMergeFixture struct {
	mono    *Analyzer
	history []*wildfire.Season
	s2019   *wildfire.Season
}

func newShardMergeFixture(t *testing.T) *shardMergeFixture {
	t.Helper()
	w := conus.Build(conus.Config{Seed: 5, CellSizeM: 40000})
	m := whp.Build(w, w.Grid, whp.Config{})
	d := cellnet.Generate(w, cellnet.GenConfig{Seed: 5, Total: 4000})
	c := census.Synthesize(w, 5)
	sim := wildfire.NewSimulator(w, m)
	return &shardMergeFixture{
		mono:    New(w, m, d, c),
		history: simulateHistory(t, sim, 5, 3),
		s2019:   wildfire.Simulate2019(sim, 5, 3),
	}
}

// overlays joins every band of the partition of into partial products,
// each band clipped to clip(i).
func (f *shardMergeFixture) overlays(of []uint16, bands int, clip func(i int) (float64, float64)) []*ShardOverlay {
	parts := make([]*ShardOverlay, bands)
	history := func() []*wildfire.Season { return f.history }
	s2019 := func() *wildfire.Season { return f.s2019 }
	for i := range parts {
		b := Band{Of: of, I: uint16(i)}
		b.MinY, b.MaxY = clip(i)
		parts[i] = f.mono.ShardOverlay(history, s2019, b)
	}
	return parts
}

func unclipped(int) (float64, float64) { return math.Inf(-1), math.Inf(1) }

// TestMergeShardOverlaysMatchesMonolithic: partial products from
// partitions of the fleet — a contiguous index split with one empty
// band, and row bands clipped to their YRange — merge to exactly the
// monolithic analyzer's rows, floats included.
func TestMergeShardOverlaysMatchesMonolithic(t *testing.T) {
	f := newShardMergeFixture(t)
	n := f.mono.Data.Len()
	cuts := make([]uint16, n) // bands [0,0) [0,900) [900,2201) [2201,n)
	for i := range cuts {
		cuts[i] = 1
		if i >= 900 {
			cuts[i] = 2
		}
		if i >= 2201 {
			cuts[i] = 3
		}
	}
	g := f.mono.World.Grid
	plan := shard.MakePlan(g.NY, 5)
	rows, _, err := shard.Partition(plan, g, n, func(i int) float64 { return f.mono.Data.T[i].XY.Y })
	if err != nil {
		t.Fatal(err)
	}
	for name, parts := range map[string][]*ShardOverlay{
		"index cuts": f.overlays(cuts, 4, unclipped),
		"row bands":  f.overlays(rows, 5, func(i int) (float64, float64) { return plan.YRange(g, i) }),
	} {
		t1, v, err := MergeShardOverlays(parts)
		if err != nil {
			t.Fatalf("%s: MergeShardOverlays: %v", name, err)
		}
		if want := f.mono.HistoricalOverlay(f.history); !reflect.DeepEqual(t1, want) {
			t.Errorf("%s: merged Table 1 differs from monolithic:\n got %+v\nwant %+v", name, t1, want)
		}
		if want := f.mono.Validate(f.s2019); !reflect.DeepEqual(v, want) {
			t.Errorf("%s: merged validation differs from monolithic:\n got %+v\nwant %+v", name, v, want)
		}
	}
}

// TestMergeSingleShardIsIdentity: a one-band merge returns the band's
// own rows with ratios recomputed — identical to monolithic when the
// band is the whole fleet.
func TestMergeSingleShardIsIdentity(t *testing.T) {
	f := newShardMergeFixture(t)
	t1, v, err := MergeShardOverlays(f.overlays(nil, 1, unclipped))
	if err != nil {
		t.Fatalf("MergeShardOverlays: %v", err)
	}
	if want := f.mono.HistoricalOverlay(f.history); !reflect.DeepEqual(t1, want) {
		t.Errorf("single-band Table 1 differs from monolithic")
	}
	if !reflect.DeepEqual(v, f.mono.Validate(f.s2019)) {
		t.Errorf("single-band validation differs from monolithic")
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
