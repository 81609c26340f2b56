package conus

import (
	"math"
	"slices"
	"testing"

	"fivealarms/internal/faults"
	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
)

// testWorld builds a coarse world once for the whole package test run.
var testWorld = Build(Config{Seed: 7, CellSizeM: 20000})

func TestBuildDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Seed != 1 || cfg.CellSizeM != 5000 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestWorldDeterministic(t *testing.T) {
	a := Build(Config{Seed: 7, CellSizeM: 40000})
	b := Build(Config{Seed: 7, CellSizeM: 40000})
	if a.Grid != b.Grid {
		t.Fatal("grid geometry differs")
	}
	for i := range a.StateZone.Data {
		if a.StateZone.Data[i] != b.StateZone.Data[i] {
			t.Fatal("state zones differ between identical builds")
		}
	}
	if a.Roads.Count() != b.Roads.Count() {
		t.Fatal("roads differ between identical builds")
	}
}

func TestInsideCoverage(t *testing.T) {
	w := testWorld
	in := w.Inside.Count()
	total := w.Grid.Cells()
	frac := float64(in) / float64(total)
	// CONUS fills roughly half its bounding box.
	if frac < 0.3 || frac > 0.8 {
		t.Errorf("inside fraction = %v", frac)
	}
	// Total inside area should approximate the real CONUS land area
	// (~8.1M km^2) within the tolerance of a coarse outline.
	areaKM2 := w.Inside.AreaSquareMeters() / 1e6
	if areaKM2 < 5.5e6 || areaKM2 > 10e6 {
		t.Errorf("CONUS area = %.3g km^2, want ~8e6", areaKM2)
	}
}

func TestStateAtKnownCities(t *testing.T) {
	w := testWorld
	tests := []struct {
		name     string
		lon, lat float64
		want     string
	}{
		{"Los Angeles", -118.2437, 34.0522, "CA"},
		{"Sacramento", -121.4944, 38.5816, "CA"},
		{"Miami", -80.1918, 25.7617, "FL"},
		{"Dallas", -96.7970, 32.7767, "TX"},
		{"Denver", -104.9903, 39.7392, "CO"},
		{"Salt Lake City", -111.8910, 40.7608, "UT"},
		{"Chicago", -87.6298, 41.8781, "IL"},
		{"Atlanta", -84.3880, 33.7490, "GA"},
	}
	for _, tc := range tests {
		xy := w.ToXY(geom.Point{X: tc.lon, Y: tc.lat})
		si := w.StateAt(xy)
		if si < 0 {
			t.Errorf("%s: outside CONUS", tc.name)
			continue
		}
		if got := geodata.States[si].Abbrev; got != tc.want {
			t.Errorf("%s: state = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestStateAtOutside(t *testing.T) {
	w := testWorld
	// Pacific Ocean and mid-Atlantic.
	for _, ll := range []geom.Point{{X: -130, Y: 40}, {X: -60, Y: 35}, {X: -95, Y: 20}} {
		if si := w.StateAt(w.ToXY(ll)); si != -1 {
			t.Errorf("point %v should be outside CONUS, got state %d", ll, si)
		}
	}
}

func TestStateZoneAreasRoughlyProportional(t *testing.T) {
	w := testWorld
	counts := make([]int, len(geodata.States))
	for cy := 0; cy < w.Grid.NY; cy++ {
		for cx := 0; cx < w.Grid.NX; cx++ {
			if v := w.StateZone.At(cx, cy); v > 0 {
				counts[v-1]++
			}
		}
	}
	// Texas must be the largest zone, Rhode Island among the smallest.
	txIdx := geodata.StateIndex("TX")
	riIdx := geodata.StateIndex("RI")
	maxIdx := 0
	for i, c := range counts {
		if c > counts[maxIdx] {
			maxIdx = i
		}
	}
	if maxIdx != txIdx {
		t.Errorf("largest zone = %s, want TX", geodata.States[maxIdx].Abbrev)
	}
	if counts[riIdx] >= counts[txIdx]/10 {
		t.Errorf("RI zone (%d cells) should be far smaller than TX (%d)", counts[riIdx], counts[txIdx])
	}
	// Every state should have at least one cell at 20 km resolution except
	// possibly DC.
	for i, c := range counts {
		if c == 0 && geodata.States[i].Abbrev != "DC" {
			t.Errorf("state %s has an empty zone", geodata.States[i].Abbrev)
		}
	}
}

func TestUrbanFieldPeaksAtCities(t *testing.T) {
	w := testWorld
	la := w.ToXY(geom.Point{X: -118.2437, Y: 34.0522})
	ruralNV := w.ToXY(geom.Point{X: -117.5, Y: 41.5})
	if w.UrbanAt(la) <= w.UrbanAt(ruralNV) {
		t.Errorf("urban intensity at LA (%v) should exceed rural Nevada (%v)",
			w.UrbanAt(la), w.UrbanAt(ruralNV))
	}
	if w.UrbanAt(la) < 0.5 {
		t.Errorf("LA urban intensity = %v, want >= 0.5", w.UrbanAt(la))
	}
}

func TestRoadsConnectCities(t *testing.T) {
	w := testWorld
	if w.Roads.Count() == 0 {
		t.Fatal("no road cells")
	}
	// Every city cell should be on or near a road.
	for _, c := range w.Cities {
		if d := w.RoadDistAt(c.XY); d > 2*w.Grid.CellSize {
			t.Errorf("city %s is %v m from nearest road", c.Name, d)
		}
	}
	// A remote point in the Nevada basin should be far from roads.
	remote := w.ToXY(geom.Point{X: -116.8, Y: 41.3})
	if d := w.RoadDistAt(remote); d < 3*w.Grid.CellSize {
		t.Errorf("remote basin point is only %v m from a road", d)
	}
}

func TestRoadDistOffGrid(t *testing.T) {
	w := testWorld
	if !math.IsInf(w.RoadDistAt(geom.Pt(1e9, 1e9)), 1) {
		t.Error("off-grid road distance should be +Inf")
	}
}

func TestProjectionRoundTripHelpers(t *testing.T) {
	w := testWorld
	ll := geom.Point{X: -100, Y: 40}
	back := w.ToLonLat(w.ToXY(ll))
	if math.Abs(back.X-ll.X) > 1e-9 || math.Abs(back.Y-ll.Y) > 1e-9 {
		t.Errorf("round trip = %v", back)
	}
}

func TestCitiesOfState(t *testing.T) {
	w := testWorld
	ca := w.CitiesOfState(geodata.StateIndex("CA"))
	if len(ca) < 5 {
		t.Errorf("CA should anchor several cities, got %d", len(ca))
	}
	for _, ci := range ca {
		if w.Cities[ci].State != "CA" {
			t.Errorf("city %s listed under CA", w.Cities[ci].Name)
		}
	}
}

func TestContains(t *testing.T) {
	w := testWorld
	if !w.Contains(w.ToXY(geom.Point{X: -98, Y: 39})) {
		t.Error("Kansas should be inside")
	}
	if w.Contains(w.ToXY(geom.Point{X: -130, Y: 45})) {
		t.Error("Pacific should be outside")
	}
}

func TestOutlineValid(t *testing.T) {
	o := testWorld.Outline()
	if !o.Valid() {
		t.Fatal("outline invalid")
	}
	if !o.Exterior.IsCCW() {
		t.Error("outline should be CCW")
	}
}

// stateZoneScan is the state assignment buildStateZones made before it
// pruned by tile: every inside cell scans all the states.
func stateZoneScan(w *World) []uint8 {
	zones := make([]uint8, w.Grid.Cells())
	for cy := 0; cy < w.Grid.NY; cy++ {
		for cx := 0; cx < w.Grid.NX; cx++ {
			if !w.Inside.Get(cx, cy) {
				continue
			}
			p := w.Grid.Center(cx, cy)
			best := -1
			bestD := math.Inf(1)
			for i, c := range w.statesXY {
				dx := p.X - c.X
				dy := p.Y - c.Y
				d := math.Sqrt(dx*dx+dy*dy) / w.stateWt[i]
				if d < bestD {
					bestD = d
					best = i
				}
			}
			zones[cy*w.Grid.NX+cx] = uint8(best + 1)
		}
	}
	return zones
}

// TestStateZoneConformance pins the tile-pruned state zones, built by
// tile row at GOMAXPROCS 1, 2 and 4, to the serial scan over every
// state, cell for cell.
func TestStateZoneConformance(t *testing.T) {
	for _, cell := range []float64{2700, 10000, 20000, 40000} {
		for _, seed := range []uint64{1, 7, 99} {
			for _, procs := range []int{1, 2, 4} {
				var w *World
				faults.WithGOMAXPROCS(procs, func() { w = Build(Config{Seed: seed, CellSizeM: cell}) })
				want := stateZoneScan(w)
				for i, got := range w.StateZone.Data {
					if got != want[i] {
						t.Fatalf("%g m, seed %d, GOMAXPROCS %d: cell (%d,%d) in state zone %d, scan says %d",
							cell, seed, procs, i%w.Grid.NX, i/w.Grid.NX, got, want[i])
					}
				}
			}
		}
	}
}

// cellsByStateGrowing is the per-state bucketing the generator and the
// county synthesis each did before CellsByState counted first: lists
// grown by append in row-major order.
func cellsByStateGrowing(w *World, mask *raster.BitGrid) [][]geom.Point {
	out := make([][]geom.Point, len(geodata.States))
	g := w.Grid
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			v := w.StateZone.At(cx, cy)
			if v == 0 || (mask != nil && !mask.Get(cx, cy)) {
				continue
			}
			out[v-1] = append(out[v-1], g.Center(cx, cy))
		}
	}
	return out
}

// TestCellsByStateConformance pins CellsByState to the growing-slice
// bucketing, with and without the road mask.
func TestCellsByStateConformance(t *testing.T) {
	for _, cell := range []float64{2700, 20000, 40000} {
		w := Build(Config{Seed: 7, CellSizeM: cell})
		for _, mask := range []*raster.BitGrid{nil, w.Roads} {
			got, want := w.CellsByState(mask), cellsByStateGrowing(w, mask)
			for si := range want {
				if !slices.Equal(got[si], want[si]) {
					t.Fatalf("%g m, road mask %v: state %d lists %d cells, growing slices %d",
						cell, mask != nil, si, len(got[si]), len(want[si]))
				}
			}
		}
	}
}

var worldSink *World

// BenchmarkWorldBuild builds the world at the paper's 2.7 km raster,
// the build task every other task of a study waits for.
func BenchmarkWorldBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		worldSink = Build(Config{Seed: 7, CellSizeM: 2700})
	}
}

func BenchmarkBuild40km(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Build(Config{Seed: 1, CellSizeM: 40000})
	}
}

func BenchmarkStateAt(b *testing.B) {
	w := testWorld
	p := w.ToXY(geom.Point{X: -100, Y: 40})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.StateAt(p)
	}
}
