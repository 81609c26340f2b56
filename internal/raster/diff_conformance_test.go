package raster_test

// External test package: the differential driver imports raster, so the
// conformance tests run from outside to avoid the cycle.

import (
	"math"
	"reflect"
	"testing"

	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
	"fivealarms/internal/refimpl"
	"fivealarms/internal/refimpl/diffcheck"
)

// TestFillConformance sweeps the scanline rasterizer against the
// per-cell-center refimpl fill over seeded polygon batteries.
func TestFillConformance(t *testing.T) {
	if err := diffcheck.Sweep(150, diffcheck.CheckFill); err != nil {
		t.Fatal(err)
	}
}

// TestDistanceConformance sweeps the two-pass Felzenszwalb-Huttenlocher
// distance transform and the dilation built on it against the
// brute-force twins. These must be bit-identical — both reduce to
// sqrt of the same exact integer times the cell size.
func TestDistanceConformance(t *testing.T) {
	if err := diffcheck.Sweep(150, diffcheck.CheckDistance); err != nil {
		t.Fatal(err)
	}
}

// TestParallelKernelConformance sweeps every tiled kernel at several
// GOMAXPROCS settings against its serial one-band result: masks and
// distances bit-identical, no carve-out.
func TestParallelKernelConformance(t *testing.T) {
	if err := diffcheck.Sweep(100, diffcheck.CheckParallel); err != nil {
		t.Fatal(err)
	}
}

// TestContourConformance sweeps the byte-per-vertex contour tracer
// against the edge-map refimpl twin: identical rings, vertex order, ring
// order and hole assignment.
func TestContourConformance(t *testing.T) {
	if err := diffcheck.Sweep(300, diffcheck.CheckContours); err != nil {
		t.Fatal(err)
	}
}

// TestRasterGoldens rasterizes the hand-authored fixtures and runs the
// fill and distance twins over the result.
func TestRasterGoldens(t *testing.T) {
	for _, name := range diffcheck.FixtureNames() {
		if err := diffcheck.CheckGoldenRaster(name); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDistanceTransformEdgeRowsAndColumns pins the transform's behavior
// on masks whose set cells hug the grid border — the configuration where
// the column pass has no vertical neighbors on one side and the row pass
// starts from an infinite parabola. Distances are checked by hand, not
// just against the twin.
func TestDistanceTransformEdgeRowsAndColumns(t *testing.T) {
	g := raster.Geometry{MinX: 0, MinY: 0, CellSize: 10, NX: 5, NY: 4}
	cases := []struct {
		name string
		set  func(m *raster.BitGrid)
		at   [][3]float64 // cx, cy, want
	}{
		{
			name: "top-row",
			set: func(m *raster.BitGrid) {
				for cx := 0; cx < g.NX; cx++ {
					m.Set(cx, 0, true)
				}
			},
			at: [][3]float64{{0, 0, 0}, {2, 1, 10}, {4, 3, 30}},
		},
		{
			name: "left-column",
			set: func(m *raster.BitGrid) {
				for cy := 0; cy < g.NY; cy++ {
					m.Set(0, cy, true)
				}
			},
			at: [][3]float64{{0, 3, 0}, {1, 1, 10}, {4, 0, 40}},
		},
		{
			name: "corner-cell",
			set:  func(m *raster.BitGrid) { m.Set(4, 3, true) },
			at:   [][3]float64{{4, 3, 0}, {4, 0, 30}, {0, 3, 40}, {3, 2, math.Sqrt2 * 10}},
		},
		{
			name: "full-border",
			set: func(m *raster.BitGrid) {
				for cx := 0; cx < g.NX; cx++ {
					m.Set(cx, 0, true)
					m.Set(cx, g.NY-1, true)
				}
				for cy := 0; cy < g.NY; cy++ {
					m.Set(0, cy, true)
					m.Set(g.NX-1, cy, true)
				}
			},
			at: [][3]float64{{2, 1, 10}, {2, 2, 10}, {1, 1, 10}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mask := raster.NewBitGrid(g)
			c.set(mask)
			dt := raster.DistanceTransform(mask)
			for _, probe := range c.at {
				cx, cy, want := int(probe[0]), int(probe[1]), probe[2]
				if got := dt.At(cx, cy); got != want {
					t.Errorf("distance at (%d,%d) = %v, want %v", cx, cy, got, want)
				}
			}
			ref := refimpl.DistanceTransform(mask)
			for i := range dt.Data {
				if dt.Data[i] != ref.Data[i] {
					t.Fatalf("cell %d: transform %v, brute force %v", i, dt.Data[i], ref.Data[i])
				}
			}
		})
	}
}

// TestFillHugeCoordinatePolygon guards the span arithmetic at offsets
// far from the origin, where absolute float noise dwarfs the cell size.
func TestFillHugeCoordinatePolygon(t *testing.T) {
	const off = 2.5e6
	m := geom.MultiPolygon{{Exterior: geom.Ring{
		geom.Pt(off, off), geom.Pt(off+1000, off), geom.Pt(off+1000, off+800), geom.Pt(off, off+800),
	}}}
	g := raster.Geometry{MinX: off - 137, MinY: off - 137, CellSize: 100, NX: 14, NY: 12}
	opt := raster.NewBitGrid(g)
	raster.FillPolygonsInto(opt, m)
	ref := refimpl.FillMultiPolygon(g, m)
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			if opt.Get(cx, cy) != ref.Get(cx, cy) {
				t.Fatalf("cell (%d,%d): scanline %v, per-cell %v", cx, cy, opt.Get(cx, cy), ref.Get(cx, cy))
			}
		}
	}
	if opt.Count() == 0 {
		t.Fatal("huge-coordinate polygon rasterized to nothing")
	}
}

// FuzzRasterDiff drives both raster twins from fuzz-chosen seeds.
func FuzzRasterDiff(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := diffcheck.CheckFill(seed); err != nil {
			t.Fatal(err)
		}
		if err := diffcheck.CheckDistance(seed); err != nil {
			t.Fatal(err)
		}
		if err := diffcheck.CheckParallel(seed); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzContourDiff drives the contour twin from fuzz-chosen seeds.
func FuzzContourDiff(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := diffcheck.CheckContours(seed); err != nil {
			t.Fatal(err)
		}
	})
}

// maskOf draws a mask on 1 m cells from rows of '#' (set) and '.'
// (unset), the top row first.
func maskOf(rows ...string) *raster.BitGrid {
	g := raster.Geometry{MinX: -40, MinY: 7, CellSize: 1, NX: len(rows[0]), NY: len(rows)}
	m := raster.NewBitGrid(g)
	for i, row := range rows {
		for cx, c := range row {
			if c == '#' {
				m.Set(cx, len(rows)-1-i, true)
			}
		}
	}
	return m
}

// TestContourHoleRule traces hand cases where giving each hole to the
// exterior of its own 4-connected component must agree with the
// reference rule, the smallest exterior containing a probe inside the
// hole: islands nested in holes in islands; a component filling the
// grid's box, its holes one cell from every edge; an unset cell that
// touches the outside at a checkerboard corner, which is no hole; and
// checkerboard corners where a hole meets an island or two islands.
// Each case pins the hole count of every polygon, in trace order.
func TestContourHoleRule(t *testing.T) {
	for _, c := range []struct {
		name  string
		mask  *raster.BitGrid
		holes []int
	}{
		{"island in a hole in an island", maskOf(
			"...........",
			".#########.",
			".#.......#.",
			".#.#####.#.",
			".#.#...#.#.",
			".#.#.#.#.#.",
			".#.#...#.#.",
			".#.#####.#.",
			".#.......#.",
			".#########.",
			"...........",
		), []int{1, 1, 0}},
		{"a component filling the grid's box", maskOf(
			"#######",
			"#.#...#",
			"###.#.#",
			"#...###",
			"#.###.#",
			"###.#.#",
			"#######",
		), []int{4}},
		{"an unset cell whose corner touches the outside: no hole", maskOf(
			"###.",
			"#.#.",
			"##..",
		), []int{0}},
		{"a checkerboard corner between a hole and an island", maskOf(
			"#####",
			"#...#",
			"#.#.#",
			"##..#",
			"#####",
		), []int{1, 0}},
		{"a checkerboard corner between two islands in a hole", maskOf(
			"######",
			"#....#",
			"#.#..#",
			"#..#.#",
			"#....#",
			"######",
		), []int{1, 0, 0}},
	} {
		got := raster.TraceContours(c.mask)
		if want := refimpl.TraceContours(c.mask); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: traced %v, reference rule %v", c.name, got, want)
		}
		holes := make([]int, len(got))
		for i, pg := range got {
			holes[i] = len(pg.Holes)
		}
		if !reflect.DeepEqual(holes, c.holes) {
			t.Errorf("%s: holes per polygon %v, want %v", c.name, holes, c.holes)
		}
	}
}
