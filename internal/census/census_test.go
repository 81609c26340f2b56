package census

import (
	"math"
	"testing"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/conus"
	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
	"fivealarms/internal/rng"
)

var (
	testWorld    = conus.Build(conus.Config{Seed: 7, CellSizeM: 20000})
	testCounties = Synthesize(testWorld, 7)
)

func TestClassify(t *testing.T) {
	tests := []struct {
		pop  int
		want DensityClass
	}{
		{100, PopRural},
		{200000, PopRural},
		{200001, PopModerate},
		{500000, PopModerate},
		{500001, PopDense},
		{1500000, PopDense},
		{1500001, PopVeryDense},
		{10000000, PopVeryDense},
	}
	for _, tc := range tests {
		if got := Classify(tc.pop); got != tc.want {
			t.Errorf("Classify(%d) = %v, want %v", tc.pop, got, tc.want)
		}
	}
}

func TestDensityClassString(t *testing.T) {
	if PopVeryDense.String() != "very-dense" || PopRural.String() != "rural" {
		t.Error("String values wrong")
	}
	if DensityClass(99).String() != "invalid" {
		t.Error("invalid class string")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(testWorld, 7)
	b := Synthesize(testWorld, 7)
	if len(a.All) != len(b.All) {
		t.Fatal("county counts differ")
	}
	for i := range a.All {
		if a.All[i] != b.All[i] {
			t.Fatalf("county %d differs between identical syntheses", i)
		}
	}
}

func TestEveryStateHasCounties(t *testing.T) {
	for si, st := range geodata.States {
		if len(testCounties.byState[si]) == 0 {
			t.Errorf("state %s has no counties", st.Abbrev)
		}
	}
}

func TestAnchorsPinned(t *testing.T) {
	// Every big county must appear with its real population.
	found := map[string]bool{}
	for _, c := range testCounties.All {
		if c.Anchor {
			found[c.Name+"/"+geodata.States[c.StateIdx].Abbrev] = true
		}
	}
	for _, bc := range geodata.BigCounties {
		if !found[bc.Name+"/"+bc.State] {
			t.Errorf("anchor county %s (%s) missing", bc.Name, bc.State)
		}
	}
}

func TestVeryDenseMatchesPaperScale(t *testing.T) {
	vd := 0
	for _, c := range testCounties.All {
		if c.Density() != PopVeryDense {
			continue
		}
		vd++
		if c.Pop <= 1500000 {
			t.Error("very-dense county below the threshold")
		}
	}
	// The paper identifies 23 counties above 1.5M; our anchors give 20+.
	if vd < 20 || vd > 30 {
		t.Errorf("very-dense counties = %d, want ~23", vd)
	}
}

func TestPopulationConservedPerState(t *testing.T) {
	for si, st := range geodata.States {
		var sum int
		for _, ci := range testCounties.byState[si] {
			sum += testCounties.All[ci].Pop
		}
		// Anchors may overrun tiny states in synthetic worlds, and Zipf
		// rounding truncates; require within 10% or exact anchor overage.
		lo := int(float64(st.Pop) * 0.85)
		hi := int(float64(st.Pop)*1.15) + 1
		if sum < lo || sum > hi {
			t.Errorf("state %s population = %d, want ~%d", st.Abbrev, sum, st.Pop)
		}
	}
}

func TestCountyAtLA(t *testing.T) {
	p := testWorld.ToXY(geom.Point{X: -118.2437, Y: 34.0522})
	ci := testCounties.CountyAt(p)
	if ci < 0 {
		t.Fatal("LA should be in a county")
	}
	c := testCounties.All[ci]
	if c.Name != "Los Angeles" {
		t.Errorf("county at LA = %s", c.Name)
	}
	if c.Density() != PopVeryDense {
		t.Errorf("LA county density = %v", c.Density())
	}
}

func TestCountyAtOcean(t *testing.T) {
	p := testWorld.ToXY(geom.Point{X: -130, Y: 40})
	if ci := testCounties.CountyAt(p); ci != -1 {
		t.Errorf("ocean county = %d, want -1", ci)
	}
}

func TestCountyAtRespectsStateBorders(t *testing.T) {
	// A point in Nevada must never resolve to a California county even if
	// a CA seed is closer.
	p := testWorld.ToXY(geom.Point{X: -114.8, Y: 36.0}) // near Vegas
	ci := testCounties.CountyAt(p)
	if ci < 0 {
		t.Fatal("point should be inside CONUS")
	}
	if ab := geodata.States[testCounties.All[ci].StateIdx].Abbrev; ab != "NV" && ab != "AZ" {
		t.Errorf("county state = %s, want NV or AZ", ab)
	}
}

func TestTotalPopulation(t *testing.T) {
	got := testCounties.TotalPopulation()
	want := geodata.TotalPopulation()
	if got < int(float64(want)*0.9) || got > int(float64(want)*1.1) {
		t.Errorf("total population = %d, want ~%d", got, want)
	}
}

func TestCountyOrdinalNames(t *testing.T) {
	if countyOrdinal(0) != "A" || countyOrdinal(25) != "Z" || countyOrdinal(26) != "AA" {
		t.Errorf("ordinals: %s %s %s", countyOrdinal(0), countyOrdinal(25), countyOrdinal(26))
	}
}

// countyAtScan is CountyAt before the tile index: the point's state
// from StateAt, then a scan of every county of that state.
func countyAtScan(c *Counties, p geom.Point) int {
	si := c.world.StateAt(p)
	if si < 0 {
		return -1
	}
	best := -1
	bestD := math.Inf(1)
	for _, ci := range c.byState[si] {
		d := c.All[ci].Seed.DistanceTo(p) / c.All[ci].weight
		if d < bestD {
			bestD = d
			best = ci
		}
	}
	return best
}

// countyProbes returns n points over w's grid: a quarter uniform over
// the grid and a cell beyond it, a quarter on cell edges and corners, a
// quarter one ulp below a cell corner, and a quarter inside cells that
// border another state.
func countyProbes(w *conus.World, seed uint64, n int) []geom.Point {
	g := w.Grid
	src := rng.New(seed)
	var border [][2]int
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			v := w.StateZone.At(cx, cy)
			if v == 0 {
				continue
			}
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := cx+d[0], cy+d[1]
				if nx >= 0 && ny >= 0 && nx < g.NX && ny < g.NY && w.StateZone.At(nx, ny) != v {
					border = append(border, [2]int{cx, cy})
					break
				}
			}
		}
	}
	edge := func(k int, lo float64) float64 { return lo + float64(k)*g.CellSize }
	pts := make([]geom.Point, n)
	for i := range pts {
		switch i % 4 {
		case 0:
			pts[i] = geom.Point{
				X: src.Range(g.MinX-g.CellSize, g.MinX+float64(g.NX+1)*g.CellSize),
				Y: src.Range(g.MinY-g.CellSize, g.MinY+float64(g.NY+1)*g.CellSize),
			}
		case 1:
			kx, ky := src.Intn(g.NX+1), src.Intn(g.NY+1)
			pts[i] = geom.Point{X: edge(kx, g.MinX), Y: edge(ky, g.MinY)}
			switch src.Intn(3) {
			case 0:
				pts[i].X += src.Float64() * g.CellSize
			case 1:
				pts[i].Y += src.Float64() * g.CellSize
			}
		case 2:
			kx, ky := 1+src.Intn(g.NX), 1+src.Intn(g.NY)
			pts[i] = geom.Point{
				X: math.Nextafter(edge(kx, g.MinX), math.Inf(-1)),
				Y: math.Nextafter(edge(ky, g.MinY), math.Inf(-1)),
			}
		case 3:
			c := border[src.Intn(len(border))]
			pts[i] = geom.Point{
				X: edge(c[0], g.MinX) + src.Float64()*g.CellSize,
				Y: edge(c[1], g.MinY) + src.Float64()*g.CellSize,
			}
		}
	}
	return pts
}

// TestCountyAtConformance pins the tile-indexed CountyAt to the scan
// over every county of the point's state.
func TestCountyAtConformance(t *testing.T) {
	for _, tc := range []struct {
		cell float64
		seed uint64
	}{{2700, 7}, {10000, 1}, {20000, 99}, {40000, 7}} {
		w := conus.Build(conus.Config{Seed: tc.seed, CellSizeM: tc.cell})
		c := Synthesize(w, tc.seed)
		for i, p := range countyProbes(w, tc.seed, 100_000) {
			if got, want := c.CountyAt(p), countyAtScan(c, p); got != want {
				t.Fatalf("%g m, seed %d, probe %d at %v: CountyAt %d, scan %d", tc.cell, tc.seed, i, p, got, want)
			}
		}
	}
}

var countySink int

// BenchmarkCountyAt looks up the county of every transceiver position
// of a 2.7 km fleet, the join the population analyses (Figures 10 and
// 12) run once per study.
func BenchmarkCountyAt(b *testing.B) {
	w := conus.Build(conus.Config{Seed: 7, CellSizeM: 2700})
	c := Synthesize(w, 7)
	d := cellnet.Generate(w, cellnet.GenConfig{Seed: 7, Total: 500_000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range d.T {
			countySink = c.CountyAt(d.T[j].XY)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(d.T)), "ns/lookup")
}
