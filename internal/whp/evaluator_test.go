package whp

import (
	"math"
	"testing"

	"fivealarms/internal/conus"
	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
	"fivealarms/internal/rng"
)

// checkEvaluator fails t unless e, bound to g, gives the point-wise
// model's hazard, class and fuel at every cell centre of g, bit for bit.
func checkEvaluator(t *testing.T, name string, m *Model, e *Evaluator, g raster.Geometry) {
	t.Helper()
	e.Reset(g)
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			p := g.Center(cx, cy)
			h, c := e.Evaluate(cx, cy)
			wantH, wantC := m.Evaluate(p)
			if math.Float64bits(h) != math.Float64bits(wantH) || c != wantC {
				t.Fatalf("%s: cell (%d, %d) of %dx%d at %v m: Evaluate = (%v, %v), point-wise (%v, %v)",
					name, cx, cy, g.NX, g.NY, g.CellSize, h, c, wantH, wantC)
			}
			if f, want := e.FuelAt(cx, cy), m.FuelAt(p); math.Float64bits(f) != math.Float64bits(want) {
				t.Fatalf("%s: cell (%d, %d) of %dx%d at %v m: FuelAt = %v, point-wise %v",
					name, cx, cy, g.NX, g.NY, g.CellSize, f, want)
			}
		}
	}
}

// square returns the geometry of cell-meter cells over the square of
// half-width r around c, as the fire race lays out its windows.
func square(c geom.Point, r, cell float64) raster.Geometry {
	return raster.NewGeometry(geom.BBox{MinX: c.X - r, MinY: c.Y - r, MaxX: c.X + r, MaxY: c.Y + r}, cell)
}

// TestEvaluatorConformance compares the Evaluator with the point-wise
// model at every cell of the national grids at 2.7, 10, 20 and 40 km
// (seeds 1, 7 and 99); of burn-like windows at 90 m, 500 m and 2.5 km
// across the CONUS outline, past the world grid's edges, with centres
// on world-cell edges and on each octave's lattice lines, all through
// one Evaluator as a season's fires are; and of the §3.8 California
// window at 800 m.
func TestEvaluatorConformance(t *testing.T) {
	for _, cell := range []float64{2700, 10000, 20000, 40000} {
		for _, seed := range []uint64{1, 7, 99} {
			w := conus.Build(conus.Config{Seed: seed, CellSizeM: cell})
			m := NewModel(w, cell, Config{})
			checkEvaluator(t, "national", m, m.Evaluator(raster.Geometry{}), w.Grid)
		}
	}

	w := testWorld
	m := NewModel(w, 2500, Config{})
	e := m.Evaluator(raster.Geometry{})
	wg := w.Grid
	bb := wg.Bounds()
	pick := rng.New(25)
	for _, cell := range []float64{90, 500, 2500} {
		r := 40 * cell
		// Across the outline: coasts, borders and the interior.
		for k := 0; k < 40; k++ {
			c := geom.Point{X: pick.Range(bb.MinX, bb.MaxX), Y: pick.Range(bb.MinY, bb.MaxY)}
			checkEvaluator(t, "window", m, e, square(c, r, cell))
		}
		for _, ll := range []geom.Point{{X: -124.1, Y: 40.8}, {X: -118.5, Y: 34.0}, {X: -80.1, Y: 26.1}, {X: -70.0, Y: 41.7}, {X: -97.4, Y: 25.9}} {
			checkEvaluator(t, "coast", m, e, square(w.ToXY(ll), r, cell))
		}
		// Past each edge and corner of the world grid.
		for _, c := range []geom.Point{
			{X: bb.MinX, Y: (bb.MinY + bb.MaxY) / 2}, {X: bb.MaxX, Y: (bb.MinY + bb.MaxY) / 2},
			{X: (bb.MinX + bb.MaxX) / 2, Y: bb.MinY}, {X: (bb.MinX + bb.MaxX) / 2, Y: bb.MaxY},
			{X: bb.MinX, Y: bb.MinY}, {X: bb.MaxX, Y: bb.MaxY}, {X: bb.MaxX + 3*r, Y: bb.MaxY + 3*r},
		} {
			checkEvaluator(t, "edge", m, e, square(c, r, cell))
		}
		// Centres on world-cell edges: the first column's and row's
		// centres sit on a world column's and row's lower edge.
		for k := 0; k < 10; k++ {
			ex := wg.MinX + float64(pick.Intn(wg.NX))*wg.CellSize
			ey := wg.MinY + float64(pick.Intn(wg.NY))*wg.CellSize
			g := square(geom.Point{X: ex, Y: ey}, r, cell)
			g.MinX, g.MinY = ex-cell/2, ey-cell/2
			checkEvaluator(t, "world edge", m, e, g)
		}
		// Centres on each octave's lattice lines.
		for o := 0; o < noiseOctaves; o++ {
			freq := math.Ldexp(1, o)
			for k := 0; k < 4; k++ {
				lx := math.Floor(pick.Range(bb.MinX, bb.MaxX)/NoiseScaleM*freq) - float64(o)*17.31
				ly := math.Floor(pick.Range(bb.MinY, bb.MaxY)/NoiseScaleM*freq) + float64(o)*11.97
				c := geom.Point{X: lx / freq * NoiseScaleM, Y: ly / freq * NoiseScaleM}
				g := square(c, r, cell)
				g.MinX, g.MinY = c.X-cell/2-float64(pick.Intn(g.NX))*cell, c.Y-cell/2-float64(pick.Intn(g.NY))*cell
				checkEvaluator(t, "lattice", m, e, g)
			}
		}
	}

	// The §3.8 fine-extension window: California at 800 m with the
	// 400 m physical road corridor.
	ca := geom.NewBBox(w.ToXY(geom.Point{X: -124.5, Y: 32.3}), w.ToXY(geom.Point{X: -114.0, Y: 42.1}))
	g := raster.NewGeometry(ca.Intersection(wg.Bounds()), 800)
	fine := NewModel(w, 800, FineConfig)
	checkEvaluator(t, "california", fine, fine.Evaluator(raster.Geometry{}), g)
}
