package wildfire

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"fivealarms/internal/conus"
	"fivealarms/internal/faults"
	"fivealarms/internal/geom"
	"fivealarms/internal/rng"
	"fivealarms/internal/whp"
)

// growingSimulator is the part of a Simulator newSimulatorGrowing
// builds, with the ignition pool as cell-centre points, as the
// Simulator held it then.
type growingSimulator struct {
	World    *conus.World
	Hazard   *whp.Map
	pool     []geom.Point
	ignition *rng.CategoricalTable
}

// newSimulatorGrowing is NewSimulator before it counted the ignition
// pool: the pool and its weights grow by append.
func newSimulatorGrowing(w *conus.World, hazard *whp.Map) *growingSimulator {
	s := &growingSimulator{World: w, Hazard: hazard}
	var weights []float64
	g := w.Grid
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			if w.StateZone.At(cx, cy) == 0 {
				continue
			}
			p := g.Center(cx, cy)
			h := hazard.HazardAt(p)
			if h <= 0.05 {
				continue
			}
			s.pool = append(s.pool, p)
			// Ignition density rises superlinearly with hazard (dry,
			// fuel-rich regions both ignite and escape containment more
			// often) and with proximity to human activity: §2.1 of the
			// paper names power-line sparks, campfires and equipment as
			// the dominant ignition sources, which is why escaped fires
			// disproportionately start at the wildland-urban interface
			// and along transportation corridors (Saddle Ridge ignited
			// under a transmission tower beside a freeway).
			human := 0.25 + math.Min(3*w.UrbanAt(p), 1.0) + math.Exp(-w.RoadDistAt(p)/15000)
			weights = append(weights, h*h*human)
		}
	}
	s.ignition = rng.NewCategorical(weights)
	return s
}

// TestNewSimulatorConformance pins NewSimulator to the growing-slice
// twin at GOMAXPROCS 1 and 4: each pool cell's centre equals the twin's
// pool point bit for bit, and the ignition tables are equal.
func TestNewSimulatorConformance(t *testing.T) {
	for _, cell := range []float64{2700, 10000, 20000} {
		w := conus.Build(conus.Config{Seed: 7, CellSizeM: cell})
		m := whp.Build(w, w.Grid, whp.Config{})
		want := newSimulatorGrowing(w, m)
		for _, procs := range []int{1, 4} {
			var got *Simulator
			faults.WithGOMAXPROCS(procs, func() { got = NewSimulator(w, m) })
			what := fmt.Sprintf("%g m world, GOMAXPROCS=%d", cell, procs)
			if len(got.pool) != len(want.pool) || len(got.pool) == 0 {
				t.Fatalf("%s: pool of %d cells, growing twin %d", what, len(got.pool), len(want.pool))
			}
			for i, c := range got.pool {
				p, q := w.Grid.Center(int(c)%w.Grid.NX, int(c)/w.Grid.NX), want.pool[i]
				if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) {
					t.Fatalf("%s: pool cell %d centre %v, growing twin %v", what, i, p, q)
				}
			}
			if !reflect.DeepEqual(got.ignition, want.ignition) {
				t.Fatalf("%s: ignition tables differ", what)
			}
		}
	}
}
