package whp

import (
	"testing"

	"fivealarms/internal/conus"
	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
)

var (
	testWorld = conus.Build(conus.Config{Seed: 7, CellSizeM: 20000})
	testMap   = Build(testWorld, testWorld.Grid, Config{})
)

func TestClassString(t *testing.T) {
	tests := []struct {
		c    Class
		want string
	}{
		{Water, "water"}, {NonBurnable, "non-burnable"}, {VeryLow, "very-low"},
		{Low, "low"}, {Moderate, "moderate"}, {High, "high"}, {VeryHigh, "very-high"},
		{Class(99), "invalid"},
	}
	for _, tc := range tests {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("Class(%d).String() = %q, want %q", tc.c, got, tc.want)
		}
	}
}

func TestAtRisk(t *testing.T) {
	for c := Water; c < Moderate; c++ {
		if c.AtRisk() {
			t.Errorf("%v should not be at risk", c)
		}
	}
	for _, c := range []Class{Moderate, High, VeryHigh} {
		if !c.AtRisk() {
			t.Errorf("%v should be at risk", c)
		}
	}
}

func TestDefaults(t *testing.T) {
	if cfg := (Config{}).withDefaults(5000); cfg.RoadBufferM != 1.25*5000 {
		t.Errorf("default road corridor = %v m, want 1.25 cells", cfg.RoadBufferM)
	}
	if cfg := FineConfig.withDefaults(5000); cfg.RoadBufferM != 400 {
		t.Errorf("fine road corridor = %v m, want 400", cfg.RoadBufferM)
	}
	if UrbanCoreThreshold <= 0 || WUIDamping <= 0 || NoiseScaleM <= 0 {
		t.Errorf("calibration constants not positive: %v, %v, %v", UrbanCoreThreshold, WUIDamping, NoiseScaleM)
	}
	cuts := [...]float64{LowCut, ModerateCut, HighCut, VeryHighCut}
	for i := 0; i < 3; i++ {
		if cuts[i] >= cuts[i+1] {
			t.Errorf("thresholds not increasing: %v", cuts)
		}
	}
}

func TestOceanIsWater(t *testing.T) {
	p := testWorld.ToXY(geom.Point{X: -130, Y: 40})
	if c := testMap.ClassAt(p); c != Water {
		t.Errorf("Pacific class = %v, want water", c)
	}
}

func TestUrbanCoresNonBurnable(t *testing.T) {
	// Downtown LA and Manhattan must classify NonBurnable.
	for _, city := range []geom.Point{
		{X: -118.2437, Y: 34.0522},
		{X: -74.0060, Y: 40.7128},
		{X: -87.6298, Y: 41.8781},
	} {
		p := testWorld.ToXY(city)
		if c := testMap.ClassAt(p); c != NonBurnable {
			t.Errorf("urban core %v class = %v, want non-burnable", city, c)
		}
	}
}

func TestClassNesting(t *testing.T) {
	// Structural property from the paper: moderate areas outnumber high
	// areas outnumber very-high areas.
	counts := testMap.ClassCounts()
	m, h, vh := counts[Moderate], counts[High], counts[VeryHigh]
	if !(m > h && h > vh) {
		t.Errorf("class nesting violated: M=%d H=%d VH=%d", m, h, vh)
	}
	if vh == 0 {
		t.Error("very-high class is empty; hazard model too weak")
	}
}

func TestWestHazardExceedsMidwest(t *testing.T) {
	// Average hazard over rural sample points: Sierra foothills vs Iowa.
	west := testWorld.ToXY(geom.Point{X: -120.8, Y: 39.5})
	midwest := testWorld.ToXY(geom.Point{X: -93.6, Y: 42.2})
	wh := testMap.HazardAt(west)
	mh := testMap.HazardAt(midwest)
	if wh <= mh {
		t.Errorf("Sierra hazard %v should exceed Iowa hazard %v", wh, mh)
	}
}

func TestStateHazardRanking(t *testing.T) {
	// Mean hazard per state zone must follow the calibration weights at
	// least for the extreme pairs.
	meanHazard := func(ab string) float64 {
		idx := geodata.StateIndex(ab)
		var sum float64
		var n int
		g := testMap.Hazard.Geometry
		for cy := 0; cy < g.NY; cy++ {
			for cx := 0; cx < g.NX; cx++ {
				if int(testMap.world.StateAt(g.Center(cx, cy))) == idx {
					sum += testMap.Hazard.At(cx, cy)
					n++
				}
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	ca := meanHazard("CA")
	il := meanHazard("IL")
	if ca <= il*1.5 {
		t.Errorf("CA mean hazard %v should far exceed IL %v", ca, il)
	}
}

func TestHazardValueRange(t *testing.T) {
	g := testMap.Hazard.Geometry
	for cy := 0; cy < g.NY; cy += 7 {
		for cx := 0; cx < g.NX; cx += 7 {
			v := testMap.Hazard.At(cx, cy)
			if v < 0 || v >= 1 {
				t.Fatalf("hazard out of range at (%d,%d): %v", cx, cy, v)
			}
		}
	}
}

func TestWUIGradient(t *testing.T) {
	// Hazard should rise moving outward from a city core into wildland.
	// March east from Sacramento into the Sierra.
	start := geom.Point{X: -121.4944, Y: 38.5816}
	core := testMap.HazardAt(testWorld.ToXY(start))
	rim := testMap.HazardAt(testWorld.ToXY(geom.Point{X: -120.6, Y: 38.75}))
	if rim <= core {
		t.Errorf("hazard at Sierra rim (%v) should exceed Sacramento core (%v)", rim, core)
	}
}

func TestExtendVeryHigh(t *testing.T) {
	ext := testMap.ExtendVeryHigh(2.5 * testMap.Classes.CellSize)
	var before, after int
	for i, v := range testMap.Classes.Data {
		if Class(v) == VeryHigh {
			before++
		}
		if Class(ext.Data[i]) == VeryHigh {
			after++
		}
	}
	if after <= before {
		t.Errorf("extension did not grow very-high: %d -> %d", before, after)
	}
	// Moderate and high cells must not be demoted or promoted.
	for i, v := range testMap.Classes.Data {
		c := Class(v)
		if c == Moderate || c == High {
			if Class(ext.Data[i]) != c {
				t.Fatalf("cell %d: class %v changed to %v", i, c, Class(ext.Data[i]))
			}
		}
	}
	// All original VH cells stay VH.
	for i, v := range testMap.Classes.Data {
		if Class(v) == VeryHigh && Class(ext.Data[i]) != VeryHigh {
			t.Fatal("original very-high cell demoted")
		}
	}
}

func TestExtendCapturesNonburnableNeighbors(t *testing.T) {
	ext := testMap.ExtendVeryHigh(2.5 * testMap.Classes.CellSize)
	promoted := 0
	for i, v := range testMap.Classes.Data {
		if Class(v) == NonBurnable && Class(ext.Data[i]) == VeryHigh {
			promoted++
		}
	}
	// The mechanism of §3.8: nonburnable corridor cells adjacent to VH get
	// captured. At least some should be promoted on a national map.
	if promoted == 0 {
		t.Error("no nonburnable cells captured by the extension")
	}
}

func TestVeryHighReachesMetroFringes(t *testing.T) {
	// §3.7/Figure 13: very-high hazard appears near the California metro
	// edges (the Sierra/San Gabriel fronts), not only in deep wilderness.
	// The super-gaussian urban kernel and light WUI damping make this
	// possible; a long-tailed urban field would suppress it for 100+ km.
	for _, city := range []geom.Point{
		{X: -118.2437, Y: 34.0522}, // Los Angeles
		{X: -121.4944, Y: 38.5816}, // Sacramento
	} {
		center := testWorld.ToXY(city)
		found := false
		g := testMap.Classes.Geometry
		for cy := 0; cy < g.NY && !found; cy++ {
			for cx := 0; cx < g.NX && !found; cx++ {
				if Class(testMap.Classes.At(cx, cy)) != VeryHigh {
					continue
				}
				if g.Center(cx, cy).DistanceTo(center) < 120000 {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("no very-high cell within 120 km of %v", city)
		}
	}
}

func TestPalette(t *testing.T) {
	p := Palette()
	if len(p) != 7 {
		t.Errorf("palette entries = %d, want 7", len(p))
	}
	if _, ok := p[uint8(VeryHigh)]; !ok {
		t.Error("palette missing very-high")
	}
}

func TestResolutionIndependence(t *testing.T) {
	// Building at two resolutions must agree on the class at identical
	// sample points away from class boundaries: the hazard field is
	// continuous in space, so compare the underlying hazard values.
	fine := Build(testWorld,
		// Small window around Denver at half the cell size.
		WindowAround(testWorld, geom.Point{X: -105.0, Y: 39.7}, 200000, 10000), Config{})
	p := testWorld.ToXY(geom.Point{X: -105.2, Y: 39.9})
	hCoarse := testMap.HazardValue(p, testWorld.StateAt(p), testWorld.UrbanAt(p))
	hFine := fine.HazardValue(p, testWorld.StateAt(p), testWorld.UrbanAt(p))
	if hCoarse != hFine {
		t.Errorf("hazard value depends on raster resolution: %v vs %v", hCoarse, hFine)
	}
}

var buildSink *Map

// BenchmarkBuild rasterizes the WHP over the 2.7 km world, the paper's
// raster: one Build of the whole national grid per iteration.
func BenchmarkBuild(b *testing.B) {
	w := conus.Build(conus.Config{Seed: 7, CellSizeM: 2700})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildSink = Build(w, w.Grid, Config{})
	}
}

func BenchmarkBuildNational20km(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Build(testWorld, testWorld.Grid, Config{})
	}
}

func BenchmarkClassAt(b *testing.B) {
	p := testWorld.ToXY(geom.Point{X: -120, Y: 38})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = testMap.ClassAt(p)
	}
}
