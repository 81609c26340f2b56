package risk

// Study-layer conformance: the Table 1 join and the Figure 3 union mask
// are recomputed from first principles with the refimpl twins — no grid
// index, no prepared geometry, no shared mask — and must agree exactly.

import (
	"testing"

	"fivealarms/internal/raster"
	"fivealarms/internal/refimpl"
	"fivealarms/internal/wildfire"
)

// table1Reference recomputes one season's transceiver count the slow
// way: every transceiver against every perimeter with the naive
// even-odd test, deduplicated per season exactly like overlaySeason.
func table1Reference(a *Analyzer, s *wildfire.Season) int {
	count := 0
	for ti := 0; ti < a.Data.Len(); ti++ {
		p := a.Data.T[ti].XY
		for fi := range s.Mapped {
			if refimpl.MultiPolygonContains(s.Mapped[fi].Perimeter, p) {
				count++
				break
			}
		}
	}
	return count
}

// TestTable1CrossCheck recomputes every Table 1 row with the refimpl
// full scan. The optimized path composes three accelerated primitives
// (grid index candidate query, burned-cell containment, sort-and-compact
// dedup); the reference composes none of them.
func TestTable1CrossCheck(t *testing.T) {
	// A slice of the history keeps the full scan (seasons × transceivers
	// × fires) affordable; the sweep-level drivers cover breadth.
	seasons := simulateHistory(t, testSim, 11, 6)[:5]
	rows := testAnalyzer.HistoricalOverlay(seasons)
	for i, s := range seasons {
		want := table1Reference(testAnalyzer, s)
		if rows[i].TransceiversIn != want {
			t.Errorf("season %d: overlay counted %d transceivers, full scan %d",
				s.Year, rows[i].TransceiversIn, want)
		}
	}
	// The parallel schedule must reproduce the serial rows exactly.
	serial := overlayAt(1, seasons)
	parallel := overlayAt(4, seasons)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("row %d: serial %+v != parallel %+v", i, serial[i], parallel[i])
		}
	}
	// No seasons give an empty table at any GOMAXPROCS: the fan-out
	// still runs one band, over the empty range.
	for _, procs := range []int{1, 4} {
		if rows := overlayAt(procs, nil); rows == nil || len(rows) != 0 {
			t.Errorf("GOMAXPROCS=%d: overlay of no seasons = %#v, want an empty slice", procs, rows)
		}
	}
}

// TestTransceiversInFireCrossCheck checks the per-fire membership list
// (not just its length) against the full scan.
func TestTransceiversInFireCrossCheck(t *testing.T) {
	season := wildfire.Simulate2019(testSim, 11, 6)
	for fi := range season.Mapped {
		f := &season.Mapped[fi]
		got := testAnalyzer.TransceiversInFire(f)
		inGot := make(map[int]bool, len(got))
		for _, ti := range got {
			inGot[ti] = true
		}
		n := 0
		for ti := 0; ti < testData.Len(); ti++ {
			if refimpl.MultiPolygonContains(f.Perimeter, testData.T[ti].XY) {
				n++
				if !inGot[ti] {
					t.Fatalf("fire %d: transceiver %d inside perimeter but missing from indexed join", fi, ti)
				}
			}
		}
		if n != len(got) {
			t.Fatalf("fire %d: indexed join returned %d members, full scan %d", fi, len(got), n)
		}
	}
}

// TestFireUnionMaskCrossCheck rebuilds the Figure 3 union mask from
// per-fire refimpl fills. Metamorphic inclusion-exclusion: the shared
// mask must equal the bitwise OR of the independent fills cell for
// cell, and its count can never exceed the sum of per-fire counts.
func TestFireUnionMaskCrossCheck(t *testing.T) {
	seasons := simulateHistory(t, testSim, 11, 4)[:6]
	union := testAnalyzer.FireUnionMask(seasons)
	g := testAnalyzer.World.Grid
	ref := raster.NewBitGrid(g)
	perFireSum := 0
	for _, s := range seasons {
		for fi := range s.Mapped {
			one := refimpl.FillMultiPolygon(g, s.Mapped[fi].Perimeter)
			perFireSum += one.Count()
			for cy := 0; cy < g.NY; cy++ {
				for cx := 0; cx < g.NX; cx++ {
					if one.Get(cx, cy) {
						ref.Set(cx, cy, true)
					}
				}
			}
		}
	}
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			if union.Get(cx, cy) != ref.Get(cx, cy) {
				t.Fatalf("cell (%d,%d): shared-mask fill %v, OR of refimpl fills %v",
					cx, cy, union.Get(cx, cy), ref.Get(cx, cy))
			}
		}
	}
	if union.Count() > perFireSum {
		t.Fatalf("union count %d exceeds per-fire sum %d", union.Count(), perFireSum)
	}
	if union.Count() == 0 {
		t.Fatal("union mask is empty; fixture seasons burned nothing")
	}
}
