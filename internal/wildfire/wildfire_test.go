package wildfire

import (
	"context"
	"math"
	"testing"

	"fivealarms/internal/conus"
	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
	"fivealarms/internal/whp"
)

var (
	testWorld = conus.Build(conus.Config{Seed: 7, CellSizeM: 20000})
	testWHP   = whp.Build(testWorld, testWorld.Grid, whp.Config{})
	testSim   = NewSimulator(testWorld, testWHP)
)

func TestSeasonDeterministic(t *testing.T) {
	cfg := SeasonConfig{Seed: 5, Year: 2010, TotalFires: 50000, TotalAcres: 4e6, MappedFires: 10}
	a := testSim.Season(cfg)
	b := testSim.Season(cfg)
	if len(a.Mapped) != len(b.Mapped) {
		t.Fatalf("mapped counts differ: %d vs %d", len(a.Mapped), len(b.Mapped))
	}
	for i := range a.Mapped {
		if a.Mapped[i].Acres != b.Mapped[i].Acres || a.Mapped[i].Ignition != b.Mapped[i].Ignition {
			t.Fatalf("fire %d differs between identical runs", i)
		}
	}
}

func TestSeasonBasicShape(t *testing.T) {
	s := testSim.Season(SeasonConfig{Seed: 3, Year: 2012, TotalFires: 67774, TotalAcres: 9.3e6, MappedFires: 25})
	if s.TotalFires != 67774 || s.TotalAcres != 9.3e6 {
		t.Error("season statistics not carried through")
	}
	if len(s.Mapped) < 20 {
		t.Fatalf("mapped fires = %d, want ~25", len(s.Mapped))
	}
	// Mapped acres should approximate the mapped share of the total.
	ratio := s.MappedAcres() / (9.3e6 * 0.85)
	if ratio < 0.5 || ratio > 1.6 {
		t.Errorf("mapped acres ratio = %v (got %.0f acres)", ratio, s.MappedAcres())
	}
	for i := range s.Mapped {
		f := &s.Mapped[i]
		if f.Acres <= 0 {
			t.Errorf("fire %s has no area", f.Name)
		}
		if len(f.Perimeter) == 0 {
			t.Errorf("fire %s has no perimeter", f.Name)
		}
		if f.EndDay <= f.StartDay {
			t.Errorf("fire %s has non-positive duration", f.Name)
		}
		if f.Year != 2012 {
			t.Errorf("fire %s wrong year", f.Name)
		}
	}
}

func TestFireSizesHeavyTailed(t *testing.T) {
	s := testSim.Season(SeasonConfig{Seed: 11, Year: 2007, TotalFires: 85705, TotalAcres: 9.3e6, MappedFires: 60})
	if len(s.Mapped) < 40 {
		t.Fatalf("too few mapped fires: %d", len(s.Mapped))
	}
	var largest, sum float64
	for i := range s.Mapped {
		sum += s.Mapped[i].Acres
		if s.Mapped[i].Acres > largest {
			largest = s.Mapped[i].Acres
		}
	}
	// Heavy tail: the largest fire should carry >10% of the mapped area.
	if largest/sum < 0.08 {
		t.Errorf("largest fire carries only %.3f of mapped area; tail too light", largest/sum)
	}
}

func TestFirePerimeterContainsIgnition(t *testing.T) {
	s := testSim.Season(SeasonConfig{Seed: 13, Year: 2015, TotalFires: 68151, TotalAcres: 1e7, MappedFires: 15})
	for i := range s.Mapped {
		f := &s.Mapped[i]
		if !f.Perimeter.ContainsPoint(f.Ignition) {
			// The ignition cell always burns, so it must be enclosed.
			t.Errorf("fire %s: ignition outside perimeter", f.Name)
		}
	}
}

func TestFiresConcentrateInHazardousStates(t *testing.T) {
	s := testSim.Season(SeasonConfig{Seed: 17, Year: 2018, TotalFires: 58083, TotalAcres: 8.8e6, MappedFires: 80})
	west, midwest := 0, 0
	for i := range s.Mapped {
		si := s.Mapped[i].StateIdx
		if si < 0 {
			continue
		}
		switch geodata.States[si].Region {
		case geodata.RegionWest, geodata.RegionMountain, geodata.RegionSouthwest:
			west++
		case geodata.RegionMidwest:
			midwest++
		}
	}
	if west <= 3*midwest {
		t.Errorf("west fires %d vs midwest %d: hazard-weighted ignition too weak", west, midwest)
	}
}

func TestWindDrivesSpreadDownwind(t *testing.T) {
	// A wind-driven fire spreads preferentially downwind, so the ignition
	// point ends up displaced upwind of the burn's center. Terrain
	// heterogeneity adds noise, so require the signal over several seeds.
	ign := testWorld.ToXY(geom.Point{X: -120.8, Y: 39.3})
	var eastShift, northShift float64
	for seed := uint64(0); seed < 5; seed++ {
		fe := testSim.growFire(testSim.newRace(), newTestSource(21+seed), "WindE", 2019, ign, 40000, 0, 0)
		fn := testSim.growFire(testSim.newRace(), newTestSource(51+seed), "WindN", 2019, ign, 40000, 90, 0)
		if fe == nil || fn == nil {
			t.Fatal("fire did not ignite")
		}
		eastShift += fe.BBox().Center().X - ign.X
		northShift += fn.BBox().Center().Y - ign.Y
	}
	if eastShift <= 0 {
		t.Errorf("east wind: mean burn center shift = %v, want positive (downwind)", eastShift/5)
	}
	if northShift <= 0 {
		t.Errorf("north wind: mean burn center shift = %v, want positive (downwind)", northShift/5)
	}
}

func TestForcedIgnitions(t *testing.T) {
	s := Simulate2019(testSim, 7, 20)
	names := map[string]*Fire{}
	for i := range s.Mapped {
		names[s.Mapped[i].Name] = &s.Mapped[i]
	}
	for _, want := range []string{"Kincade", "Getty", "Saddle Ridge", "Tick"} {
		f, ok := names[want]
		if !ok {
			t.Errorf("anchor fire %s missing", want)
			continue
		}
		// Pinned near the real location (within ~60 km of the anchor).
		var anchor geodata.AnchorFire
		for _, a := range geodata.PaperFires2019 {
			if a.Name == want {
				anchor = a
			}
		}
		d := f.Ignition.DistanceTo(testWorld.ToXY(geom.Point{X: anchor.Lon, Y: anchor.Lat}))
		if d > 60000 {
			t.Errorf("%s ignition %v m from anchor", want, d)
		}
		// Size within a factor of ~2.5 of the target (raster effects).
		if f.Acres < anchor.Acres/2.5 || f.Acres > anchor.Acres*2.5 {
			t.Errorf("%s acres = %.0f, want ~%.0f", want, f.Acres, anchor.Acres)
		}
		if f.StateIdx < 0 || geodata.States[f.StateIdx].Abbrev != "CA" {
			t.Errorf("%s should be in California", want)
		}
	}
	if s.Year != 2019 {
		t.Error("season year")
	}
}

func TestSimulateHistoryCalibration(t *testing.T) {
	seasons, err := SimulateHistory(context.Background(), testSim, 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(seasons) != 19 {
		t.Fatalf("seasons = %d, want 19", len(seasons))
	}
	// Oldest first.
	if seasons[0].Year != 2000 || seasons[18].Year != 2018 {
		t.Errorf("year range %d..%d", seasons[0].Year, seasons[18].Year)
	}
	for _, s := range seasons {
		row, ok := geodata.PaperTable1ByYear(s.Year)
		if !ok {
			t.Fatalf("year %d missing from Table 1", s.Year)
		}
		if s.TotalFires != row.Fires {
			t.Errorf("%d: fires %d != Table 1 %d", s.Year, s.TotalFires, row.Fires)
		}
		if math.Abs(s.TotalAcres-row.AcresBurnedM*1e6) > 1 {
			t.Errorf("%d: acres %.0f != Table 1 %.1fM", s.Year, s.TotalAcres, row.AcresBurnedM)
		}
		if len(s.Mapped) == 0 {
			t.Errorf("%d: no mapped fires", s.Year)
		}
	}
}

func TestGrowFireOcean(t *testing.T) {
	// Igniting in the Pacific must fail cleanly.
	f := testSim.growFire(testSim.newRace(), newTestSource(31), "Ocean", 2019,
		testWorld.ToXY(geom.Point{X: -130, Y: 40}), 1000, 0, 0)
	if f != nil {
		t.Error("ocean ignition should return nil")
	}
}

func BenchmarkGrowFire10k(b *testing.B) {
	ign := testWorld.ToXY(geom.Point{X: -120.8, Y: 39.3})
	for i := 0; i < b.N; i++ {
		_ = testSim.growFire(testSim.newRace(), newTestSource(uint64(i)), "Bench", 2019, ign, 10000, 45, 0)
	}
}

var ignitionSink int32

// BenchmarkIgnitionDraw draws ignition cells from the hazard-weighted
// pool of a 2.7 km world, the draw every mapped fire of a season makes.
func BenchmarkIgnitionDraw(b *testing.B) {
	w := conus.Build(conus.Config{Seed: 7, CellSizeM: 2700})
	sim := NewSimulator(w, whp.Build(w, w.Grid, whp.Config{}))
	src := newTestSource(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ignitionSink = sim.pool[sim.ignition.Sample(src)]
	}
}

var simSink *Simulator

// BenchmarkNewSimulator builds the ignition pool and table of the 2.7 km
// world, the study's sim task.
func BenchmarkNewSimulator(b *testing.B) {
	w := conus.Build(conus.Config{Seed: 7, CellSizeM: 2700})
	m := whp.Build(w, w.Grid, whp.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simSink = NewSimulator(w, m)
	}
}

// benchSeason is the season BenchmarkSeason simulates.
var benchSeason = SeasonConfig{Seed: 5, Year: 2010, TotalFires: 50000, TotalAcres: 4e6, MappedFires: 20}

func BenchmarkSeason(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = testSim.Season(benchSeason)
	}
}

// BenchmarkTraceContours traces the burned masks of BenchmarkSeason's
// fires on the 20 km test world, captured once in setup: the masks
// raster.TraceContours sees in a study. One op traces one fire's mask,
// cycling through the season.
func BenchmarkTraceContours(b *testing.B) {
	var masks []*raster.BitGrid
	sim := *testSim
	sim.onBurn = func(_ *Fire, burned *raster.BitGrid) { masks = append(masks, burned) }
	sim.Season(benchSeason)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raster.TraceContours(masks[i%len(masks)])
	}
}
