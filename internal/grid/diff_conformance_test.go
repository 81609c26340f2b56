package grid_test

// External test package: the differential driver imports grid, so the
// conformance tests run from outside to avoid the cycle.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"fivealarms/internal/geom"
	"fivealarms/internal/grid"
	"fivealarms/internal/refimpl"
	"fivealarms/internal/refimpl/diffcheck"
	"fivealarms/internal/rng"
)

// TestPointIndexConformance sweeps window, radius and count queries
// against exhaustive scans over seeded point batteries: duplicates,
// collinear sets, clusters a million units apart, boundary-exact
// windows and rim-exact radii.
func TestPointIndexConformance(t *testing.T) {
	if err := diffcheck.Sweep(200, diffcheck.CheckPointIndex); err != nil {
		t.Fatal(err)
	}
}

// TestPointIndexGoldens queries the vertex sets of the hand-authored
// fixtures through the index and the brute-force twin.
func TestPointIndexGoldens(t *testing.T) {
	for _, name := range diffcheck.FixtureNames() {
		if err := diffcheck.CheckGoldenPoints(name); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSparseClustersBoundedCells is the regression test for the
// allocation pathology the differential suite flagged: two small
// clusters a million units apart with a 0.5-unit requested cell used to
// make New allocate extent²/cell² buckets (tens of millions of cells
// for sixty points). The bucket count must now be bounded by the point
// count, not the coordinate span, while every query stays exact.
func TestSparseClustersBoundedCells(t *testing.T) {
	var pts []geom.Point
	for i := 0; i < 30; i++ {
		f := float64(i)
		pts = append(pts, geom.Pt(f*0.25, f*0.125))
		pts = append(pts, geom.Pt(1e6+f*0.25, 1e6+f*0.125))
	}
	idx := grid.New(pts, 0.5)
	b := idx.Bounds()
	nx := int(math.Floor(b.Width()/idx.CellSize())) + 1
	ny := int(math.Floor(b.Height()/idx.CellSize())) + 1
	if maxCells := 64 * len(pts); nx*ny > maxCells {
		t.Fatalf("index grew %d cells for %d points (cell %v), want <= %d",
			nx*ny, len(pts), idx.CellSize(), maxCells)
	}
	// The coarser effective cell must not change any answer.
	windows := []geom.BBox{
		{MinX: -1, MinY: -1, MaxX: 8, MaxY: 4},
		{MinX: 1e6, MinY: 1e6, MaxX: 1e6 + 4, MaxY: 1e6 + 2},
		{MinX: 0, MinY: 0, MaxX: 2e6, MaxY: 2e6},
	}
	for _, w := range windows {
		got := idx.Query(w, nil)
		want := refimpl.RangeQuery(pts, w)
		if len(got) != len(want) {
			t.Fatalf("window %v: index %d hits, brute force %d", w, len(got), len(want))
		}
	}
	for _, r := range []float64{0, 1, 1e6} {
		if got, want := idx.CountRadius(geom.Pt(0, 0), r), len(refimpl.RadiusQuery(pts, geom.Pt(0, 0), r)); got != want {
			t.Fatalf("radius %v: index %d, brute force %d", r, got, want)
		}
	}
}

// TestTinyPointSetFloorCells pins the other side of the clamp: small
// point sets keep the 1024-cell floor so a requested fine cell is
// honored when it is harmless.
func TestTinyPointSetFloorCells(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 10)}
	idx := grid.New(pts, 0.5)
	if idx.CellSize() != 0.5 {
		t.Fatalf("cell grew to %v for a 2-point set; 21x21 cells fit the floor", idx.CellSize())
	}
	if got := idx.Query(geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, nil); len(got) != 2 {
		t.Fatalf("query lost points: %v", got)
	}
}

// FuzzGridIndexDiff drives the point-index twins from fuzz-chosen seeds.
func FuzzGridIndexDiff(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := diffcheck.CheckPointIndex(seed); err != nil {
			t.Fatal(err)
		}
	})
}

// twinSets are the point sets the compressed rows are compared with the
// legacy twin on: random, clustered, duplicate and single-point sets,
// then every diffcheck point-index case and every fixture's vertices.
func twinSets(t *testing.T) map[string][]geom.Point {
	t.Helper()
	r := rng.New(11)
	sets := map[string][]geom.Point{"single": {geom.Pt(3, -4)}, "empty": nil}
	var random, clustered, dup []geom.Point
	for i := 0; i < 3000; i++ {
		random = append(random, geom.Pt(r.Range(-500, 500), r.Range(0, 300)))
		c := float64(i % 3)
		clustered = append(clustered, geom.Pt(c*1e5+r.Range(0, 2), c*1e5+r.Range(0, 2)))
		dup = append(dup, geom.Pt(float64(i%7), float64(i%5)))
	}
	sets["random"], sets["clustered"], sets["duplicates"] = random, clustered, dup
	for seed := int64(0); seed < 40; seed++ {
		c := diffcheck.GenPointsCase(seed)
		sets[fmt.Sprintf("diffcheck %d: %s", seed, c.Desc)] = c.Pts
	}
	for _, name := range diffcheck.FixtureNames() {
		features, err := diffcheck.Fixture(name)
		if err != nil {
			t.Fatal(err)
		}
		var pts []geom.Point
		for _, m := range features {
			for _, pg := range m {
				for _, ring := range append([]geom.Ring{pg.Exterior}, pg.Holes...) {
					pts = append(pts, ring...)
				}
			}
		}
		sets["fixture "+name] = pts
	}
	return sets
}

// TestIndexMatchesLegacyTwin: on every twin set and at a fitted, a
// coarse and a fine requested cell size, Query, Visit and QueryRadius
// return the legacy twin's index sequences element for element (not
// just the same sets), CountRadius counts them, and the effective cell
// sizes agree.
func TestIndexMatchesLegacyTwin(t *testing.T) {
	r := rng.New(12)
	for name, pts := range twinSets(t) {
		bb := geom.PointsBBox(pts)
		extent := math.Max(math.Max(bb.Width(), bb.Height()), 1)
		if len(pts) == 0 {
			bb = geom.NewBBox(geom.Pt(0, 0), geom.Pt(1, 1))
		}
		for _, cell := range []float64{0, extent / 8, extent / 2048} {
			got, want := grid.New(pts, cell), grid.NewLegacy(pts, cell)
			at := fmt.Sprintf("%s (%d points) cell %g", name, len(pts), cell)
			if got.CellSize() != want.CellSize() {
				t.Fatalf("%s: cell size %v, twin %v", at, got.CellSize(), want.CellSize())
			}
			windows := []geom.BBox{bb, geom.EmptyBBox()}
			for q := 0; q < 24; q++ {
				x, y := r.Range(bb.MinX-extent/4, bb.MaxX), r.Range(bb.MinY-extent/4, bb.MaxY)
				w, h := r.Range(0, extent/2), r.Range(0, extent/2)
				windows = append(windows, geom.NewBBox(geom.Pt(x, y), geom.Pt(x+w, y+h)))
			}
			for _, w := range windows {
				if g, wt := got.Query(w, nil), want.Query(w, nil); !slices.Equal(g, wt) {
					t.Fatalf("%s: Query(%v) = %v, twin %v", at, w, g, wt)
				}
				var g, wt []int
				got.Visit(w, func(i int) bool { g = append(g, i); return len(g) < 17 })
				want.Visit(w, func(i int) bool { wt = append(wt, i); return len(wt) < 17 })
				if !slices.Equal(g, wt) {
					t.Fatalf("%s: Visit(%v) = %v, twin %v", at, w, g, wt)
				}
			}
			for q := 0; q < 24; q++ {
				c := geom.Pt(r.Range(bb.MinX, bb.MaxX), r.Range(bb.MinY, bb.MaxY))
				rad := r.Range(0, extent/3)
				if q < len(pts) {
					rad = c.DistanceTo(pts[q]) // a rim-exact radius
				}
				g, wt := got.QueryRadius(c, rad, nil), want.QueryRadius(c, rad, nil)
				if !slices.Equal(g, wt) {
					t.Fatalf("%s: QueryRadius(%v, %v) = %v, twin %v", at, c, rad, g, wt)
				}
				if n := got.CountRadius(c, rad); n != len(wt) {
					t.Fatalf("%s: CountRadius(%v, %v) = %d, twin %d", at, c, rad, n, len(wt))
				}
			}
		}
	}
}
