package wildfire

import (
	"context"
	"fmt"
	"math"
	"testing"

	"fivealarms/internal/conus"
	"fivealarms/internal/geom"
	"fivealarms/internal/rng"
	"fivealarms/internal/whp"
)

// TestFireCellsConformance pins the burned-cell join to the perimeter it
// stands for. Over the histories of 10, 20 and 40 km worlds, each world
// a parallel subtest, every fire's Contains must answer as its naive ray
// cast (Perimeter.ContainsPoint) does at seeded points over the
// perimeter's box grown by 100 m, at every ring vertex and edge
// midpoint, and at each of those moved one ulp either way in x, in y
// and in both; and its BBox must equal Perimeter.BBox bit for bit.
func TestFireCellsConformance(t *testing.T) {
	for _, cell := range []float64{10000, 20000, 40000} {
		t.Run(fmt.Sprintf("%gm", cell), func(t *testing.T) {
			t.Parallel()
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
						t.Fatalf("simulated fire %s has no cells", f.Name)
					}
					if got, want := f.BBox(), f.Perimeter.BBox(); !sameBox(got, want) {
						t.Fatalf("%s: BBox %v, perimeter box %v", f.Name, got, want)
					}
					for _, p := range fireProbes(f, pick) {
						if got, naive := f.Contains(p), f.Perimeter.ContainsPoint(p); got != naive {
							t.Fatalf("%s at (%v, %v): cells %v, naive %v", f.Name, p.X, p.Y, got, naive)
						}
						probes++
					}
					fires++
				}
			}
			if fires == 0 {
				t.Fatal("no fire burned")
			}
			t.Logf("%d fires, %d probes", fires, probes)
		})
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
