package raster

// Tile-seam correctness: features placed exactly on band boundaries,
// row-group boundaries and word boundaries, every banded kernel, band
// counts from 1 through full-grid (one band per row/column) and beyond. Band counts follow
// GOMAXPROCS, so each test sweeps it. These tests live inside the
// package so they can pin the band split at exact band geometries via
// the internal helpers; the external conformance tests sweep the same
// kernels through the seeded diffcheck drivers.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"fivealarms/internal/faults"
	"fivealarms/internal/geom"
	"fivealarms/internal/pipeline"
)

// seamProcs are the GOMAXPROCS settings the seam tests sweep. They
// deliberately include 1 (serial), counts that divide the test grids
// evenly, primes that do not, and counts exceeding the thin grids' one
// row or column (clamped to one band per row — the "1×1 tile" extreme).
var seamProcs = [...]int{1, 2, 3, 4, 7, 33}

// seamGrids are the kernel seam test's shapes. 1×1 takes the serial
// path; the others hold at least parallelMinCells cells, so they band:
// squares whose rows straddle words, one of them of odd width (row
// groups of 64 rows), and a one-row and a one-column grid whose long
// axis carries every band.
var seamGrids = [...][2]int{{1, 1}, {130, 130}, {129, 129}, {16390, 1}, {1, 16390}}

func seamGeometry(nx, ny int) Geometry {
	return Geometry{MinX: -50, MinY: -25, CellSize: 10, NX: nx, NY: ny}
}

// requireBands fails t unless, at GOMAXPROCS p, a kernel on g splits
// each axis into min(p, maxKernelBands, axis) bands. Kernels stay
// serial below parallelMinCells, so a twin on a grid too small to band
// would compare the serial path with itself.
func requireBands(t *testing.T, g Geometry, p int) {
	t.Helper()
	for _, axis := range []struct {
		name string
		n    int
	}{{"column", g.NX}, {"row", g.NY}} {
		if got, want := kernelBands(g.Cells(), axis.n), min(p, maxKernelBands, axis.n); got != want {
			t.Fatalf("%dx%d at GOMAXPROCS=%d: %d %s bands, want %d", g.NX, g.NY, p, got, axis.name, want)
		}
	}
}

func TestSetSpanMatchesPerCellSet(t *testing.T) {
	// Spans chosen to start/end exactly at word boundaries (cells 63, 64,
	// 127, 128 of a 70-wide grid straddle rows), cross multiple words,
	// clamp at the grid edge, and degenerate to one cell.
	g := seamGeometry(70, 5)
	cases := []struct{ cy, cx0, cx1 int }{
		{0, 0, 69}, {0, 63, 63}, {0, 63, 64}, {1, 0, 0}, {1, 57, 58},
		{2, 5, 5}, {2, -3, 2}, {3, 60, 99}, {4, 0, 69}, {2, 40, 10},
		{-1, 0, 5}, {5, 0, 5},
	}
	for _, c := range cases {
		a := NewBitGrid(g)
		a.SetSpan(c.cy, c.cx0, c.cx1)
		b := NewBitGrid(g)
		for cx := c.cx0; cx <= c.cx1; cx++ {
			b.Set(cx, c.cy, true)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("SetSpan(%d, %d, %d) != per-cell Set", c.cy, c.cx0, c.cx1)
		}
	}
}

func TestAnyInSpanMatchesPerCellGet(t *testing.T) {
	// One set cell at each word boundary of a 70-wide grid (cell 63 ends
	// word 0, (64, 0) starts word 1, (57, 1) and (58, 1) are cells 127
	// and 128), plus an empty and a full grid; every span of every row,
	// clamped and inverted ones included.
	g := seamGeometry(70, 5)
	masks := []*BitGrid{NewBitGrid(g), NewBitGrid(g)}
	for cy := 0; cy < g.NY; cy++ {
		masks[1].SetSpan(cy, 0, g.NX-1)
	}
	for _, at := range [][2]int{{63, 0}, {64, 0}, {57, 1}, {58, 1}, {0, 1}, {69, 4}} {
		m := NewBitGrid(g)
		m.Set(at[0], at[1], true)
		masks = append(masks, m)
	}
	for i, m := range masks {
		for cy := -1; cy <= g.NY; cy++ {
			for cx0 := -2; cx0 <= g.NX+1; cx0++ {
				for cx1 := cx0 - 2; cx1 <= g.NX+1; cx1++ {
					want := false
					for cx := cx0; cx <= cx1; cx++ {
						want = want || m.Get(cx, cy)
					}
					if got := m.AnyInSpan(cy, cx0, cx1); got != want {
						t.Fatalf("mask %d: AnyInSpan(%d, %d, %d) = %v, per-cell Get %v", i, cy, cx0, cx1, got, want)
					}
				}
			}
		}
	}
}

// TestDilationDiskMatchesDilate pins DilationDisk to the kernel it stands
// for. The dilation of a single set cell is the disk Cover stamps around
// it, and Reaches agrees with the dilation cell by cell, for single cells
// in the middle, at corners (clipped disks) and on word boundaries, and
// for every seam mask. Cell sizes are and are not exact in binary;
// distances sit on each ring math.Sqrt(d2)*cell, one ulp either side of
// it, and at the degenerate values.
func TestDilationDiskMatchesDilate(t *testing.T) {
	dists := func(cell float64) []float64 {
		out := []float64{0, -cell, 0.6 * cell, math.NaN(), math.Inf(1), 1e300}
		for d2 := 0; d2 <= 64; d2++ {
			b := math.Sqrt(float64(d2)) * cell
			out = append(out, math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1)))
		}
		return out
	}
	check := func(name string, mask *BitGrid, dist float64) {
		t.Helper()
		want := DilateByDistance(mask, dist)
		disk := DilationDisk(mask.Geometry, dist)
		for cy := 0; cy < mask.NY; cy++ {
			for cx := 0; cx < mask.NX; cx++ {
				if got := disk.Reaches(mask, cx, cy); got != want.Get(cx, cy) {
					t.Fatalf("%s, cell %v, dist %v: Reaches(%d, %d) = %v, DilateByDistance %v",
						name, mask.CellSize, dist, cx, cy, got, want.Get(cx, cy))
				}
			}
		}
	}
	for _, cell := range []float64{1, 700, 1000, 3000, 0.3} {
		g := Geometry{CellSize: cell, NX: 70, NY: 9}
		for _, at := range [][2]int{{35, 4}, {0, 0}, {69, 8}, {63, 0}, {64, 0}, {57, 1}} {
			mask := NewBitGrid(g)
			mask.Set(at[0], at[1], true)
			for _, dist := range dists(cell) {
				check(fmt.Sprintf("single cell %v", at), mask, dist)
				if math.IsInf(dist, 1) {
					continue // Reaches reads nothing: the dilation sets every cell
				}
				covered := NewBitGrid(g)
				DilationDisk(g, dist).Cover(covered, at[0], at[1])
				if covered.Fingerprint() != DilateByDistance(mask, dist).Fingerprint() {
					t.Fatalf("single cell %v, cell %v, dist %v: Cover differs from DilateByDistance", at, cell, dist)
				}
			}
		}
	}
	g := seamGeometry(130, 130)
	for name, mask := range seamMasks(g) {
		for _, dist := range []float64{0, 1.5 * g.CellSize, math.Sqrt(2) * g.CellSize, 7 * g.CellSize, math.Inf(1), math.NaN()} {
			check(name, mask, dist)
		}
	}
}

func TestNotKeepsTailClear(t *testing.T) {
	g := seamGeometry(9, 7) // 63 cells: the tail word has a single spare bit
	m := NewBitGrid(g)
	m.Set(3, 3, true)
	m.Not()
	if got, want := m.Count(), g.Cells()-1; got != want {
		t.Fatalf("Not: %d set cells, want %d", got, want)
	}
	m.Not()
	if m.Count() != 1 || !m.Get(3, 3) {
		t.Fatal("double Not did not restore the mask")
	}
}

func TestAndIntersects(t *testing.T) {
	g := seamGeometry(70, 3)
	a, b := NewBitGrid(g), NewBitGrid(g)
	a.SetSpan(1, 0, 69)
	b.SetSpan(1, 60, 69)
	b.SetSpan(2, 0, 5)
	if err := a.And(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Count(); got != 10 {
		t.Fatalf("And: %d cells, want 10", got)
	}
	if err := a.And(NewBitGrid(seamGeometry(3, 3))); err == nil {
		t.Fatal("And across shapes must fail")
	}
}

func TestForEachSetRunMatchesPerCellScan(t *testing.T) {
	// Masks with runs that touch word boundaries, span whole rows, sit in
	// adjacent rows sharing a word (NX=70 is not a multiple of 64), and a
	// full grid.
	g := seamGeometry(70, 4)
	build := func(spans [][3]int) *BitGrid {
		m := NewBitGrid(g)
		for _, s := range spans {
			m.SetSpan(s[0], s[1], s[2])
		}
		return m
	}
	cases := []struct {
		name  string
		spans [][3]int
	}{
		{"empty", nil},
		{"full", [][3]int{{0, 0, 69}, {1, 0, 69}, {2, 0, 69}, {3, 0, 69}}},
		{"word-boundary-cells", [][3]int{{0, 63, 63}, {0, 64, 64}, {1, 57, 58}}},
		{"row-spanning-word", [][3]int{{0, 69, 69}, {1, 0, 0}}},
		{"isolated-cells", [][3]int{{0, 0, 0}, {2, 35, 35}, {3, 69, 69}}},
		{"mixed-runs", [][3]int{{1, 3, 20}, {1, 22, 64}, {2, 0, 69}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := build(c.spans)
			var got [][3]int
			m.ForEachSetRun(func(cy, cx0, cx1 int) {
				got = append(got, [3]int{cy, cx0, cx1})
			})
			// Reference: per-cell scan for maximal runs.
			var want [][3]int
			for cy := 0; cy < g.NY; cy++ {
				cx := 0
				for cx < g.NX {
					if !m.Get(cx, cy) {
						cx++
						continue
					}
					start := cx
					for cx < g.NX && m.Get(cx, cy) {
						cx++
					}
					want = append(want, [3]int{cy, start, cx - 1})
				}
			}
			if len(got) != len(want) {
				t.Fatalf("runs: got %v, want %v", got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("run %d: got %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// seamMasks builds mask scenarios whose set cells hug band boundaries
// at every GOMAXPROCS in seamProcs: single rows, single columns, full
// grids, checkerboards, and diagonal stripes.
func seamMasks(g Geometry) map[string]*BitGrid {
	masks := map[string]*BitGrid{}
	empty := NewBitGrid(g)
	masks["empty"] = empty
	full := NewBitGrid(g)
	for cy := 0; cy < g.NY; cy++ {
		full.SetSpan(cy, 0, g.NX-1)
	}
	masks["full"] = full
	// One set row (column) exactly at each row (column) band boundary
	// for every band count.
	rows := NewBitGrid(g)
	cols := NewBitGrid(g)
	for _, p := range seamProcs {
		for b := 0; b < min(p, g.NY); b++ {
			lo, _ := pipeline.BandRange(b, g.NY, min(p, g.NY))
			rows.SetSpan(lo, 0, g.NX-1)
		}
		for b := 0; b < min(p, g.NX); b++ {
			lo, _ := pipeline.BandRange(b, g.NX, min(p, g.NX))
			for cy := 0; cy < g.NY; cy++ {
				cols.Set(lo, cy, true)
			}
		}
	}
	masks["band-boundary-rows"] = rows
	masks["band-boundary-cols"] = cols
	// The last row of every row group, the first row of the next, and the
	// cells either side of that word boundary: where the row-banded
	// kernels split.
	lastRows, firstRows, groupCells := NewBitGrid(g), NewBitGrid(g), NewBitGrid(g)
	for r := rowGroup(g.NX); r < g.NY; r += rowGroup(g.NX) {
		lastRows.SetSpan(r-1, 0, g.NX-1)
		firstRows.SetSpan(r, 0, g.NX-1)
		groupCells.Set(g.NX-1, r-1, true)
		groupCells.Set(0, r, true)
	}
	masks["group-last-rows"] = lastRows
	masks["group-first-rows"] = firstRows
	masks["group-boundary-cells"] = groupCells
	checker := NewBitGrid(g)
	for cy := 0; cy < g.NY; cy++ {
		for cx := (cy & 1); cx < g.NX; cx += 2 {
			checker.Set(cx, cy, true)
		}
	}
	masks["checkerboard"] = checker
	diag := NewBitGrid(g)
	for cy := 0; cy < g.NY; cy++ {
		diag.Set(cy%g.NX, cy, true)
	}
	masks["diagonal"] = diag
	corner := NewBitGrid(g)
	corner.Set(0, 0, true)
	corner.Set(g.NX-1, g.NY-1, true)
	masks["corners"] = corner
	// One set cell, the first of a word, mid-grid: the dilation of a
	// single cell is the shape DilationDisk describes.
	single := NewBitGrid(g)
	mid := g.Cells() / 2 &^ 63
	single.Set(mid%g.NX, mid/g.NX, true)
	masks["single"] = single
	return masks
}

func TestKernelSeams(t *testing.T) {
	kernels := [...]string{"distance transform", "dilate"}
	for _, dims := range seamGrids {
		g := seamGeometry(dims[0], dims[1])
		for name, mask := range seamMasks(g) {
			fingerprints := func() [len(kernels)]uint64 {
				return [...]uint64{
					DistanceTransform(mask).Fingerprint(),
					DilateByDistance(mask, 1.5*g.CellSize).Fingerprint(),
				}
			}
			var serial [len(kernels)]uint64
			faults.WithGOMAXPROCS(1, func() { serial = fingerprints() })
			for _, p := range seamProcs[1:] {
				faults.WithGOMAXPROCS(p, func() {
					requireBands(t, g, p)
					for i, fp := range fingerprints() {
						if fp != serial[i] {
							t.Errorf("%dx%d/%s: %s diverges at GOMAXPROCS=%d", g.NX, g.NY, name, kernels[i], p)
						}
					}
				})
			}
			// Complementing twice must restore the mask on the same
			// scenarios.
			backAndForth := mask.Clone()
			backAndForth.Not()
			backAndForth.Not()
			if backAndForth.Fingerprint() != mask.Fingerprint() {
				t.Errorf("%dx%d/%s: double complement diverges", g.NX, g.NY, name)
			}
		}
	}
}

// TestFillSeams rasterizes polygons whose edges land exactly on band
// boundary rows, on row-group boundaries and on cell-center columns, at
// every GOMAXPROCS, on an even-width grid and an odd-width one.
func TestFillSeams(t *testing.T) {
	for _, dims := range [...][2]int{{130, 130}, {129, 129}} {
		fillSeams(t, seamGeometry(dims[0], dims[1]))
	}
}

func fillSeams(t *testing.T, g Geometry) {
	t.Helper()
	rect := func(x0, y0, x1, y1 float64) geom.Polygon {
		return geom.Polygon{Exterior: geom.Ring{
			geom.Pt(x0, y0), geom.Pt(x1, y0), geom.Pt(x1, y1), geom.Pt(x0, y1),
		}}
	}
	// Band boundaries at GOMAXPROCS p sit at rows b*NY/p; their
	// projected y is MinY + row*CellSize. Build rectangles whose
	// horizontal edges lie exactly on those lattice lines for every p,
	// plus slivers thinner than a cell and a polygon crossing the whole
	// grid.
	var polys []geom.Polygon
	for _, p := range seamProcs {
		for b := 1; b < p && b < g.NY; b++ {
			lo, _ := pipeline.BandRange(b, g.NY, p)
			y := g.MinY + float64(lo)*g.CellSize
			polys = append(polys, rect(g.MinX+5, y-15, g.MinX+655, y+15))
			polys = append(polys, rect(g.MinX+100, y, g.MinX+200, y+2))
		}
	}
	// The row bands split between row groups: edges on the lattice line
	// between two groups and on the center lines of the rows either
	// side, slivers holding just one of those rows, and a triangle with
	// a vertex on the boundary.
	for r := rowGroup(g.NX); r < g.NY; r += rowGroup(g.NX) {
		y := g.MinY + float64(r)*g.CellSize
		polys = append(polys,
			rect(g.MinX+25, y-35, g.MinX+1105, y+35),
			rect(g.MinX+15, g.RowY(r-1), g.MinX+615, g.RowY(r)),
			rect(g.MinX+300, g.RowY(r)-1, g.MinX+900, g.RowY(r)+1),
			rect(g.MinX+300, g.RowY(r-1)-1, g.MinX+900, g.RowY(r-1)+1),
			geom.Polygon{Exterior: geom.Ring{
				geom.Pt(g.MinX+5, y), geom.Pt(g.MinX+1200, y-300), geom.Pt(g.MinX+600, y+400),
			}},
		)
	}
	top := g.MinY + float64(g.NY)*g.CellSize
	polys = append(polys,
		rect(g.MinX-100, g.MinY-100, g.MinX+1e4, g.MinY+1e4), // covers everything
		rect(g.MinX+634.9, g.MinY+5, g.MinX+635.1, top-5),    // one-column sliver on a word boundary
	)
	fill := func(ps []geom.Polygon) uint64 {
		mask := NewBitGrid(g)
		FillPolygonsInto(mask, ps)
		return mask.Fingerprint()
	}
	// fills is the fused fill of every polygon, then each polygon alone.
	fills := func() []uint64 {
		out := []uint64{fill(polys)}
		for i := range polys {
			out = append(out, fill(polys[i:i+1]))
		}
		return out
	}
	var serial []uint64
	faults.WithGOMAXPROCS(1, func() { serial = fills() })
	for _, p := range seamProcs[1:] {
		faults.WithGOMAXPROCS(p, func() {
			requireBands(t, g, p)
			for i, fp := range fills() {
				if fp == serial[i] {
					continue
				}
				if i == 0 {
					t.Errorf("%dx%d: all-fused diverges at GOMAXPROCS=%d", g.NX, g.NY, p)
				} else {
					t.Errorf("%dx%d: polygon %d diverges at GOMAXPROCS=%d", g.NX, g.NY, i-1, p)
				}
			}
		})
	}
	// The fused sweep must equal the polygon-at-a-time union exactly.
	oneByOne := NewBitGrid(g)
	for i := range polys {
		FillPolygonsInto(oneByOne, polys[i:i+1])
	}
	if oneByOne.Fingerprint() != serial[0] {
		t.Errorf("%dx%d: fused sweep diverges from polygon-at-a-time union", g.NX, g.NY)
	}
}

// TestRowGroupFillsWholeWords pins the write rule of the row-banded
// kernels: rowGroup(nx) rows of an nx-wide grid fill whole 64-bit
// words, and no fewer rows do.
func TestRowGroupFillsWholeWords(t *testing.T) {
	// The CONUS grid widths at 2.7 km (odd and even) and at 10 and 20 km.
	want := map[int]int{1703: 64, 1704: 8, 460: 16, 230: 32}
	widths := []int{1703, 1704, 460, 230}
	for nx := 1; nx <= 300; nx++ {
		widths = append(widths, nx)
	}
	for _, nx := range widths {
		r := rowGroup(nx)
		if w, ok := want[nx]; ok && r != w {
			t.Errorf("rowGroup(%d) = %d, want %d", nx, r, w)
		}
		if nx*r%64 != 0 {
			t.Errorf("NX=%d: %d rows hold %d cells, not whole words", nx, r, nx*r)
		}
		for s := 1; s < r; s++ {
			if nx*s%64 == 0 {
				t.Errorf("NX=%d: %d rows already fill whole words, rowGroup says %d", nx, s, r)
			}
		}
	}
}

// TestRowBandsOwnWholeWords runs rowBands at every seam GOMAXPROCS: the
// bands cover every row exactly once, each starts and ends on a word
// boundary (or the grid's end), and there are as many as GOMAXPROCS and
// the row groups allow.
func TestRowBandsOwnWholeWords(t *testing.T) {
	for _, dims := range [...][2]int{{129, 129}, {130, 130}, {1703, 10}, {16390, 1}, {1, 16390}} {
		g := seamGeometry(dims[0], dims[1])
		groups := (g.NY + rowGroup(g.NX) - 1) / rowGroup(g.NX)
		for _, p := range seamProcs {
			faults.WithGOMAXPROCS(p, func() {
				var mu sync.Mutex
				bands := 0
				seen := make([]int, g.NY)
				rowBands(g, func(lo, hi int) {
					mu.Lock()
					defer mu.Unlock()
					bands++
					if lo*g.NX%64 != 0 || hi != g.NY && hi*g.NX%64 != 0 {
						t.Errorf("%dx%d at GOMAXPROCS=%d: band [%d, %d) shares a word", g.NX, g.NY, p, lo, hi)
					}
					for r := lo; r < hi; r++ {
						seen[r]++
					}
				})
				for r, n := range seen {
					if n != 1 {
						t.Fatalf("%dx%d at GOMAXPROCS=%d: row %d run %d times", g.NX, g.NY, p, r, n)
					}
				}
				if want := min(p, groups); bands != want {
					t.Errorf("%dx%d at GOMAXPROCS=%d: %d bands, want %d", g.NX, g.NY, p, bands, want)
				}
			})
		}
	}
}

// TestRasterKernelFingerprints is the CI smoke invariant: on a
// study-scale grid, every parallel kernel's fingerprint equals the
// serial one's.
func TestRasterKernelFingerprints(t *testing.T) {
	g := Geometry{MinX: -2.3e6, MinY: -1.4e6, CellSize: 2700, NX: 430, NY: 270}
	polys := syntheticPerimeters(g, 24, 99)
	fingerprints := func() (fill, dist uint64) {
		mask := NewBitGrid(g)
		FillPolygonsInto(mask, polys)
		return mask.Fingerprint(), DistanceTransform(mask).Fingerprint()
	}
	var serialFill, serialDist uint64
	faults.WithGOMAXPROCS(1, func() { serialFill, serialDist = fingerprints() })
	for _, p := range []int{2, 4, 8} {
		faults.WithGOMAXPROCS(p, func() {
			requireBands(t, g, p)
			fill, dist := fingerprints()
			if fill != serialFill {
				t.Errorf("fill fingerprint diverges at GOMAXPROCS=%d", p)
			}
			if dist != serialDist {
				t.Errorf("distance fingerprint diverges at GOMAXPROCS=%d", p)
			}
		})
	}
}

// syntheticPerimeters builds deterministic star-shaped fire perimeters
// scattered over the grid — irregular convex-ish polygons with vertex
// counts and radii varying by index, no RNG dependency.
func syntheticPerimeters(g Geometry, n int, salt uint64) []geom.Polygon {
	w := float64(g.NX) * g.CellSize
	h := float64(g.NY) * g.CellSize
	polys := make([]geom.Polygon, 0, n)
	state := salt*2862933555777941757 + 3037000493
	next := func() float64 {
		state = state*2862933555777941757 + 3037000493
		return float64(state>>11) / float64(1<<53)
	}
	for i := 0; i < n; i++ {
		cx := g.MinX + (0.1+0.8*next())*w
		cy := g.MinY + (0.1+0.8*next())*h
		rBase := (0.02 + 0.08*next()) * math.Min(w, h)
		verts := 5 + i%7
		ring := make(geom.Ring, 0, verts)
		for v := 0; v < verts; v++ {
			ang := 2 * math.Pi * float64(v) / float64(verts)
			r := rBase * (0.6 + 0.8*next())
			ring = append(ring, geom.Pt(cx+r*math.Cos(ang), cy+r*math.Sin(ang)))
		}
		polys = append(polys, geom.Polygon{Exterior: ring})
	}
	return polys
}

// TestKernelsLeaveNoGoroutines runs every banded kernel at GOMAXPROCS=4,
// where each fans out across helper goroutines, and requires that none
// of those goroutines outlives the kernel call that started it.
func TestKernelsLeaveNoGoroutines(t *testing.T) {
	g := Geometry{MinX: 0, MinY: 0, CellSize: 100, NX: 256, NY: 256}
	polys := syntheticPerimeters(g, 12, 7)
	check := faults.CheckGoroutines(t)
	faults.WithGOMAXPROCS(4, func() {
		mask := NewBitGrid(g)
		FillPolygonsInto(mask, polys)
		DistanceTransform(mask)
		DilateByDistance(mask, 250)
	})
	check()
}
