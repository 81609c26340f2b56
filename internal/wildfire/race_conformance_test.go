package wildfire

import (
	"context"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"fivealarms/internal/conus"
	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
	"fivealarms/internal/refimpl"
	"fivealarms/internal/rng"
	"fivealarms/internal/whp"
)

// refBurn is the ignition race before per-cell states, kept verbatim as
// the reference burn must match: a lazily filled fuel cache, a seen set,
// and a delay computed for every fueled neighbor, even one already in
// the race, whose push then drops it.
func (s *Simulator) refBurn(src *rng.Source, ign geom.Point,
	targetAcres, windDeg, windStrength float64) (*raster.BitGrid, int, int) {

	if targetAcres < 1 {
		targetAcres = 1
	}
	targetM2 := targetAcres * geom.SquareMetersPerAcre

	// Local window: generous margin around the expected final radius,
	// asymmetric growth included.
	radius := math.Sqrt(targetM2/math.Pi) * 3.5
	cellSize := clampF(math.Sqrt(targetM2)/45, 90, 2500)
	g := raster.NewGeometry(geom.BBox{
		MinX: ign.X - radius, MinY: ign.Y - radius,
		MaxX: ign.X + radius, MaxY: ign.Y + radius,
	}, cellSize)
	targetCells := int(targetM2/g.CellArea()) + 1

	// Precompute fuel over the window lazily (cache on demand).
	fuel := make([]float64, g.Cells())
	for i := range fuel {
		fuel[i] = -1
	}
	fuelAt := func(cx, cy int) float64 {
		i := cy*g.NX + cx
		if fuel[i] < 0 {
			fuel[i] = pointFuel(s.Hazard, s.World, g.Center(cx, cy))
		}
		return fuel[i]
	}

	windRad := windDeg * math.Pi / 180
	wx, wy := math.Cos(windRad), math.Sin(windRad)

	burned := raster.NewBitGrid(g)
	cx0, cy0, ok := g.CellOf(ign)
	if !ok || fuelAt(cx0, cy0) <= 0 {
		return nil, 0, 0
	}

	var h refHeap
	seen := make([]bool, g.Cells())
	push := func(cx, cy int, t float64) {
		if cx < 0 || cy < 0 || cx >= g.NX || cy >= g.NY {
			return
		}
		i := cy*g.NX + cx
		if seen[i] {
			return
		}
		seen[i] = true
		h.push(refItem{idx: i, time: t})
	}
	push(cx0, cy0, 0)

	nBurned := 0
	nonburnableBurned := 0
	for len(h) > 0 && nBurned < targetCells {
		it := h.pop()
		cy := it.idx / g.NX
		cx := it.idx % g.NX
		f := fuelAt(cx, cy)
		if f <= 0 {
			continue // ocean: never burns
		}
		burned.Set(cx, cy, true)
		nBurned++
		if f <= 0.04 {
			nonburnableBurned++
		}
		// Race the 8 neighbors.
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				ncx, ncy := cx+dx, cy+dy
				if ncx < 0 || ncy < 0 || ncx >= g.NX || ncy >= g.NY {
					continue
				}
				nf := fuelAt(ncx, ncy)
				if nf <= 0 {
					continue
				}
				// Wind alignment: spreading downwind is faster.
				norm := math.Sqrt(float64(dx*dx + dy*dy))
				align := (float64(dx)*wx + float64(dy)*wy) / norm
				rate := nf * math.Exp(windStrength*align)
				dt := src.Exponential(1/rate) * norm
				push(ncx, ncy, it.time+dt)
			}
		}
	}
	if nBurned == 0 {
		return nil, 0, 0
	}
	return burned, nBurned, nonburnableBurned
}

// refHeap is the race's binary min-heap on time from before the
// frontier became a radix heap, kept verbatim as the reference race's
// queue: the sift order matches container/heap exactly (strict-less
// comparisons, left child on ties).
type refHeap []refItem

// refItem is a cell of the reference race's queue.
type refItem struct {
	idx  int // cell index in the local window
	time float64
}

func (h *refHeap) push(it refItem) {
	s := append(*h, it)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(s[i].time < s[parent].time) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *refHeap) pop() refItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].time < s[j].time {
			j = j2
		}
		if !(s[j].time < s[i].time) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}

// pointFuel is the fuel model evaluated at a single point, as
// whp.Model.FuelAt was before whp.Evaluator tabulated it per window,
// kept verbatim as the reference race's fuel.
func pointFuel(m *whp.Map, w *conus.World, p geom.Point) float64 {
	si := w.StateAt(p)
	if si < 0 {
		return 0
	}
	urban := w.UrbanAt(p)
	if urban >= whp.UrbanCoreThreshold || w.RoadDistAt(p) <= m.Cfg.RoadBufferM {
		return 0.03
	}
	base := geodata.States[si].Hazard
	n := w.Noise().FBM(p.X/whp.NoiseScaleM, p.Y/whp.NoiseScaleM, 5, 0.55)
	// Mix: the state weight sets the regional level, noise modulates it.
	h := base * (0.15 + 0.85*n)
	// The wildland-urban interface: hazard decays toward the urban core.
	damp := 1 - whp.WUIDamping*math.Min(urban/math.Max(whp.UrbanCoreThreshold, 1e-9), 1)
	h *= damp
	if h < 0 {
		h = 0
	}
	if h >= 1 {
		h = 0.999
	}
	if h < 0.05 {
		return 0.05
	}
	return h
}

// fineSim is a fire simulator over a 2.7 km world, the paper's raster
// resolution, built on first use. The race reads only its hazard map.
var fineSim = sync.OnceValue(func() *Simulator {
	w := conus.Build(conus.Config{Seed: 7, CellSizeM: 2700})
	return &Simulator{World: w, Hazard: whp.Build(w, w.Grid, whp.Config{})}
})

// TestGrowFireConformance races fires through burn and through the
// reference race and requires the same burned cells, the same corridor
// count and the same rng state after every fire. Ignitions cover land,
// coasts (windows that reach the ocean) and points off the world grid;
// targets run from half an acre (clamped to one, 90 m cells) to 4e6
// acres (past the 2,500 m cell clamp); wind strengths are 0, 0.9 and
// 2.2.
func TestGrowFireConformance(t *testing.T) {
	coasts := []geom.Point{
		{X: -124.1, Y: 40.8}, {X: -118.5, Y: 34.0}, {X: -122.5, Y: 37.8}, {X: -117.2, Y: 32.7},
		{X: -80.1, Y: 26.1}, {X: -70.0, Y: 41.7}, {X: -94.8, Y: 29.3}, {X: -123.9, Y: 46.2},
	}
	for _, c := range []struct {
		name  string
		sim   *Simulator
		fires int
	}{
		{"20km", testSim, 1400},
		{"2.7km", fineSim(), 700},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := c.sim.World
			bb := w.Grid.Bounds()
			pick := rng.New(0xC0FFEE)
			// One race runs every fire, as in a season.
			r := c.sim.newRace()
			burnedFires := 0
			for k := 0; k < c.fires; k++ {
				var ign geom.Point
				switch k % 8 {
				case 0:
					ign = w.ToXY(coasts[pick.Intn(len(coasts))])
					ign.X += pick.Range(-30000, 30000)
					ign.Y += pick.Range(-30000, 30000)
				case 1:
					// Off the world grid, beyond every edge.
					ign = geom.Point{X: bb.MinX - pick.Range(1, 5e5), Y: pick.Range(bb.MinY-5e5, bb.MaxY+5e5)}
					if pick.Intn(2) == 0 {
						ign = geom.Point{X: pick.Range(bb.MinX, bb.MaxX), Y: bb.MaxY + pick.Range(1, 5e5)}
					}
				default:
					ign = geom.Point{X: pick.Range(bb.MinX, bb.MaxX), Y: pick.Range(bb.MinY, bb.MaxY)}
				}
				acres := math.Exp(pick.Range(math.Log(0.5), math.Log(4e6)))
				wind := pick.Range(0, 360)
				strength := []float64{0, defaultWindStrength, 2.2}[k%3]

				seed := uint64(k) + 1
				src, srcRef := rng.New(seed), rng.New(seed)
				got, n, nc := c.sim.burn(r, src, ign, acres, wind, strength)
				want, nRef, ncRef := c.sim.refBurn(srcRef, ign, acres, wind, strength)
				if n != nRef || nc != ncRef {
					t.Fatalf("fire %d (ign %v, %.4g acres, wind %.1f° x%.1f): burned %d/%d corridor, reference %d/%d",
						k, ign, acres, wind, strength, n, nc, nRef, ncRef)
				}
				if !sameCells(got, want) {
					t.Fatalf("fire %d (ign %v, %.4g acres): burned cells differ from the reference", k, ign, acres)
				}
				if *src != *srcRef {
					t.Fatalf("fire %d (ign %v, %.4g acres): rng state differs from the reference after the race", k, ign, acres)
				}
				if n > 0 {
					burnedFires++
				}
			}
			if burnedFires < c.fires/3 {
				t.Fatalf("only %d of %d fires burned; the sweep covers too little land", burnedFires, c.fires)
			}
		})
	}
}

// sameCells reports whether two masks are both nil or share a geometry
// and every cell.
func sameCells(a, b *raster.BitGrid) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Geometry != b.Geometry {
		return false
	}
	d := a.Clone()
	if err := d.AndNot(b); err != nil {
		return false
	}
	return d.Count() == 0 && a.Count() == b.Count()
}

// TestPerimeterConformance traces every burned mask of the history and
// the 2019 season that TestHistoryGolden pins with the edge-map twin,
// refimpl.TraceContours, and requires each fire's perimeter to equal it:
// every ring, vertex and hole assignment.
func TestPerimeterConformance(t *testing.T) {
	var fires, holes atomic.Int64
	sim := *testSim
	sim.onBurn = func(f *Fire, burned *raster.BitGrid) {
		fires.Add(1)
		for _, pg := range f.Perimeter {
			holes.Add(int64(len(pg.Holes)))
		}
		if want := refimpl.TraceContours(burned); !reflect.DeepEqual(f.Perimeter, want) {
			t.Errorf("%s: perimeter of %d polygons, edge-map twin %d", f.Name, len(f.Perimeter), len(want))
		}
	}
	if _, err := SimulateHistory(context.Background(), &sim, 42, 12); err != nil {
		t.Fatal(err)
	}
	Simulate2019(&sim, 42, 12)
	if fires.Load() == 0 || holes.Load() == 0 {
		t.Fatalf("%d fires with %d holes reached the burn hook", fires.Load(), holes.Load())
	}
}
