package coverage

import (
	"math"
	"testing"

	"fivealarms/internal/census"
	"fivealarms/internal/conus"
	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
)

var (
	testWorld    = conus.Build(conus.Config{Seed: 7, CellSizeM: 20000})
	testCounties = census.Synthesize(testWorld, 7)
	testModel    = New(testWorld, BuildPopulation(testWorld, testCounties), 0)
)

func TestBuildDefaults(t *testing.T) {
	if testModel.RadiusM != DefaultRadiusM {
		t.Errorf("radius = %v", testModel.RadiusM)
	}
}

func TestPopulationSurfaceConserved(t *testing.T) {
	got := testModel.TotalPopulation()
	want := float64(testCounties.TotalPopulation())
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("surface population %.0f vs counties %.0f", got, want)
	}
}

func TestPopulationConcentratesInCities(t *testing.T) {
	g := testWorld.Grid
	la := testWorld.ToXY(geom.Point{X: -118.2437, Y: 34.0522})
	ruralNV := testWorld.ToXY(geom.Point{X: -117.0, Y: 41.2})
	cxa, cya, _ := g.CellOf(la)
	cxb, cyb, _ := g.CellOf(ruralNV)
	if testModel.Pop.At(cxa, cya) <= 50*testModel.Pop.At(cxb, cyb) {
		t.Errorf("LA cell pop %.0f should dwarf rural NV %.0f",
			testModel.Pop.At(cxa, cya), testModel.Pop.At(cxb, cyb))
	}
}

func TestServedMask(t *testing.T) {
	site := testWorld.ToXY(geom.Point{X: -100, Y: 40})
	mask := testModel.ServedMask([]geom.Point{site})
	if mask.Count() == 0 {
		t.Fatal("no served cells")
	}
	cx, cy, _ := testWorld.Grid.CellOf(site)
	if !mask.Get(cx, cy) {
		t.Error("site cell must be served")
	}
	// Radius 10km at 20km cells: only the site cell.
	if mask.Count() > 9 {
		t.Errorf("served cells = %d, want small neighborhood", mask.Count())
	}
	if got := testModel.ServedMask(nil).Count(); got != 0 {
		t.Errorf("no sites should serve nothing, got %d", got)
	}
}

func TestEvaluateBasics(t *testing.T) {
	// One failing site in Kansas, one surviving site co-located with it
	// (same tower compound): nobody is stranded. Move the survivor away:
	// the Kansas cell strands.
	fail := testWorld.ToXY(geom.Point{X: -98, Y: 38.5})
	near := fail
	far := testWorld.ToXY(geom.Point{X: -80, Y: 35})

	imp := testModel.Evaluate([]geom.Point{near}, []geom.Point{fail})
	if imp.StrandedPopulation != 0 {
		t.Errorf("with overlapping survivor, stranded = %.0f", imp.StrandedPopulation)
	}
	if imp.ExposedPopulation <= 0 {
		t.Error("exposed population must be positive")
	}

	imp = testModel.Evaluate([]geom.Point{far}, []geom.Point{fail})
	if imp.StrandedPopulation <= 0 {
		t.Error("without nearby survivor, population must strand")
	}
	if imp.StrandedPopulation > imp.ExposedPopulation {
		t.Error("stranded cannot exceed exposed")
	}
	if imp.ServedPopulation < imp.ExposedPopulation {
		t.Error("served must include exposed")
	}
}

func TestStateZonePopulationsSane(t *testing.T) {
	// Sum the surface within California's zone: should approximate CA's
	// population.
	g := testWorld.Grid
	caIdx := geodata.StateIndex("CA")
	var sum float64
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			if int(testWorld.StateZone.At(cx, cy))-1 == caIdx {
				sum += testModel.Pop.At(cx, cy)
			}
		}
	}
	want := float64(geodata.States[caIdx].Pop)
	// County Voronoi zones cross the state raster boundary a little, so
	// allow a wider band.
	if sum < want*0.7 || sum > want*1.3 {
		t.Errorf("CA surface population %.0f, want ~%.0f", sum, want)
	}
}

func BenchmarkEvaluate(b *testing.B) {
	var fail, ok []geom.Point
	for i := 0; i < 200; i++ {
		fail = append(fail, testWorld.ToXY(geom.Point{X: -120 + float64(i)*0.01, Y: 38}))
		ok = append(ok, testWorld.ToXY(geom.Point{X: -100 + float64(i)*0.01, Y: 40}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = testModel.Evaluate(ok, fail)
	}
}
