package wildfire

import (
	"bytes"
	"context"
	"math"
	"testing"

	"fivealarms/internal/conus"
	"fivealarms/internal/geom"
	"fivealarms/internal/rng"
	"fivealarms/internal/whp"
)

// TestFireCellsConformance pins the burned-cell join to the perimeter it
// stands for. Over the histories of 10, 20 and 40 km worlds, every
// fire's Contains must answer as its prepared perimeter
// (geom.PrepareMultiPolygon) does at seeded points over the perimeter's
// box grown by 100 m, at every ring vertex and edge midpoint, and at
// each of those moved one ulp either way in x, in y and in both, and as
// its naive ray cast (Perimeter.ContainsPoint) does at every fifth of
// those probes; and its BBox must equal Perimeter.BBox bit for bit. A
// fire read back from GeoJSON carries no cells and must answer as its
// perimeter does.
func TestFireCellsConformance(t *testing.T) {
	for _, cell := range []float64{10000, 20000, 40000} {
		sim := testSim
		if cell != testWorld.Grid.CellSize {
			w := conus.Build(conus.Config{Seed: 7, CellSizeM: cell})
			sim = NewSimulator(w, whp.Build(w, w.Grid, whp.Config{}))
		}
		seasons, err := SimulateHistory(context.Background(), sim, 42, 1)
		if err != nil {
			t.Fatal(err)
		}
		pick := rng.New(uint64(cell))
		fires, probes := 0, 0
		for _, s := range seasons {
			for i := range s.Mapped {
				f := &s.Mapped[i]
				if f.cells == nil {
					t.Fatalf("%g m world: simulated fire %s has no cells", cell, f.Name)
				}
				if got, want := f.BBox(), f.Perimeter.BBox(); !sameBox(got, want) {
					t.Fatalf("%g m world, %s: BBox %v, perimeter box %v", cell, f.Name, got, want)
				}
				prep := geom.PrepareMultiPolygon(f.Perimeter)
				for k, p := range fireProbes(f, pick) {
					got := f.Contains(p)
					if prepared := prep.Contains(p); got != prepared {
						t.Fatalf("%g m world, %s at (%v, %v): cells %v, prepared %v", cell, f.Name, p.X, p.Y, got, prepared)
					}
					// The naive ray cast costs a test per vertex, so it
					// checks every fifth probe; 5 and 9 are coprime, so
					// that cycles through all nine moves of a point.
					if k%5 == 0 {
						if naive := f.Perimeter.ContainsPoint(p); got != naive {
							t.Fatalf("%g m world, %s at (%v, %v): cells %v, naive %v", cell, f.Name, p.X, p.Y, got, naive)
						}
					}
					probes++
				}
				fires++
			}
		}
		if fires == 0 {
			t.Fatalf("%g m world: no fire burned", cell)
		}
		t.Logf("%g m world: %d fires, %d probes", cell, fires, probes)

		// A fire read back from GeoJSON has only its perimeter.
		var buf bytes.Buffer
		if err := seasons[len(seasons)-1].WriteGeoJSON(&buf, sim.World); err != nil {
			t.Fatal(err)
		}
		read, err := ReadGeoJSON(&buf, sim.World)
		if err != nil || len(read) == 0 {
			t.Fatalf("%g m world: %d fires read back, error %v", cell, len(read), err)
		}
		f := &read[0]
		if f.cells != nil || !sameBox(f.BBox(), f.Perimeter.BBox()) {
			t.Fatalf("%g m world: GeoJSON fire %s has cells or box %v, perimeter box %v",
				cell, f.Name, f.BBox(), f.Perimeter.BBox())
		}
		for _, p := range fireBase(f, pick) {
			if got, want := f.Contains(p), f.Perimeter.ContainsPoint(p); got != want {
				t.Fatalf("%g m world, GeoJSON fire %s at %v: Contains %v, perimeter %v", cell, f.Name, p, got, want)
			}
		}
	}
}

// fireProbes returns the points TestFireCellsConformance tests f at:
// each of fireBase's points with its 8 one-ulp neighbours, and the
// non-finite points.
func fireProbes(f *Fire, pick *rng.Source) []geom.Point {
	base := fireBase(f, pick)
	probes := make([]geom.Point, 0, 9*len(base)+4)
	steps := [3]float64{math.Inf(-1), 0, math.Inf(1)}
	for _, p := range base {
		for _, dx := range steps {
			for _, dy := range steps {
				probes = append(probes, geom.Point{X: towards(p.X, dx), Y: towards(p.Y, dy)})
			}
		}
	}
	c := base[0]
	nan, inf := math.NaN(), math.Inf(1)
	return append(probes, geom.Point{X: nan, Y: c.Y}, geom.Point{X: c.X, Y: nan},
		geom.Point{X: -inf, Y: c.Y}, geom.Point{X: inf, Y: c.Y})
}

// fireBase returns 64 seeded points over the box of f's perimeter grown
// by 100 m, and every ring vertex and edge midpoint.
func fireBase(f *Fire, pick *rng.Source) []geom.Point {
	bb := f.Perimeter.BBox().Buffer(100)
	var base []geom.Point
	for range 64 {
		base = append(base, geom.Point{X: pick.Range(bb.MinX, bb.MaxX), Y: pick.Range(bb.MinY, bb.MaxY)})
	}
	for _, pg := range f.Perimeter {
		for _, r := range append([]geom.Ring{pg.Exterior}, pg.Holes...) {
			for i, p := range r {
				q := r[(i+1)%len(r)]
				base = append(base, p, geom.Point{X: (p.X + q.X) / 2, Y: (p.Y + q.Y) / 2})
			}
		}
	}
	return base
}

// towards returns v moved one ulp towards dir, or v itself for dir 0.
func towards(v, dir float64) float64 {
	if dir == 0 {
		return v
	}
	return math.Nextafter(v, dir)
}

// sameBox reports whether a and b are the same box bit for bit.
func sameBox(a, b geom.BBox) bool {
	x, y := [4]float64{a.MinX, a.MinY, a.MaxX, a.MaxY}, [4]float64{b.MinX, b.MinY, b.MaxX, b.MaxY}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}
