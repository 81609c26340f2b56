package raster

import (
	"bytes"
	"math"
	"testing"

	"fivealarms/internal/geom"
	"fivealarms/internal/rng"
)

func testGeom(nx, ny int, cell float64) Geometry {
	return Geometry{MinX: 0, MinY: 0, CellSize: cell, NX: nx, NY: ny}
}

func TestGeometryBasics(t *testing.T) {
	g := NewGeometry(geom.NewBBox(geom.Pt(10, 20), geom.Pt(110, 70)), 10)
	if g.NX != 11 || g.NY != 6 {
		t.Errorf("NX,NY = %d,%d", g.NX, g.NY)
	}
	if g.Cells() != 66 {
		t.Errorf("Cells = %d", g.Cells())
	}
	if g.CellArea() != 100 {
		t.Errorf("CellArea = %v", g.CellArea())
	}
	b := g.Bounds()
	if b.MinX != 10 || b.MinY != 20 {
		t.Errorf("Bounds = %v", b)
	}

	cx, cy, ok := g.CellOf(geom.Pt(25, 35))
	if !ok || cx != 1 || cy != 1 {
		t.Errorf("CellOf = %d,%d,%v", cx, cy, ok)
	}
	if _, _, ok := g.CellOf(geom.Pt(5, 35)); ok {
		t.Error("point left of grid should be outside")
	}
	if _, _, ok := g.CellOf(geom.Pt(500, 35)); ok {
		t.Error("point right of grid should be outside")
	}
	c := g.Center(0, 0)
	if c.X != 15 || c.Y != 25 {
		t.Errorf("Center = %v", c)
	}
}

func TestGeometryZeroCellSize(t *testing.T) {
	g := NewGeometry(geom.NewBBox(geom.Pt(0, 0), geom.Pt(5, 5)), 0)
	if g.CellSize <= 0 {
		t.Error("cell size must be coerced positive")
	}
}

func TestClassGrid(t *testing.T) {
	c := NewClassGrid(testGeom(10, 10, 1))
	c.Set(3, 4, 7)
	if c.At(3, 4) != 7 {
		t.Error("Set/At")
	}
	if c.At(-1, 0) != 0 || c.At(0, 100) != 0 {
		t.Error("out-of-range At should be 0")
	}
	c.Set(-5, 2, 9) // must not panic
	v, ok := c.Sample(geom.Pt(3.5, 4.5))
	if !ok || v != 7 {
		t.Errorf("Sample = %v,%v", v, ok)
	}
	if _, ok := c.Sample(geom.Pt(-1, -1)); ok {
		t.Error("sample off-grid should report !ok")
	}
	h := c.Histogram()
	if h[7] != 1 || h[0] != 99 {
		t.Errorf("Histogram: h[7]=%d h[0]=%d", h[7], h[0])
	}
	cl := c.Clone()
	cl.Set(0, 0, 1)
	if c.At(0, 0) != 0 {
		t.Error("Clone must be independent")
	}
}

func TestClassGridMask(t *testing.T) {
	c := NewClassGrid(testGeom(4, 4, 1))
	c.Set(1, 1, 3)
	c.Set(2, 2, 5)
	m := c.Mask(func(v uint8) bool { return v >= 3 })
	if m.Count() != 2 {
		t.Errorf("mask count = %d", m.Count())
	}
	if !m.Get(1, 1) || !m.Get(2, 2) || m.Get(0, 0) {
		t.Error("mask cells wrong")
	}
}

func TestBitGridOps(t *testing.T) {
	g := testGeom(8, 8, 1)
	a := NewBitGrid(g)
	b := NewBitGrid(g)
	a.Set(1, 1, true)
	b.Set(2, 2, true)
	b.Set(1, 1, true)
	if err := a.Or(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 2 {
		t.Errorf("Or count = %d", a.Count())
	}
	if err := a.AndNot(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 0 {
		t.Errorf("AndNot count = %d", a.Count())
	}
	a.Set(3, 3, true)
	a.Set(3, 3, false)
	if a.Get(3, 3) {
		t.Error("Set false failed")
	}
	other := NewBitGrid(testGeom(4, 4, 1))
	if err := a.Or(other); err != ErrShapeMismatch {
		t.Errorf("shape mismatch error = %v", err)
	}
	if a.AreaSquareMeters() != 0 {
		t.Error("area of empty mask")
	}
	a.Set(0, 0, true)
	if a.AreaSquareMeters() != 1 {
		t.Errorf("area = %v", a.AreaSquareMeters())
	}
}

// bruteDistance computes the exact EDT by brute force for the oracle test.
func bruteDistance(mask *BitGrid) *FloatGrid {
	g := mask.Geometry
	out := NewFloatGrid(g)
	var set [][2]int
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			if mask.Get(cx, cy) {
				set = append(set, [2]int{cx, cy})
			}
		}
	}
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			best := math.Inf(1)
			for _, s := range set {
				dx := float64(cx - s[0])
				dy := float64(cy - s[1])
				d := math.Sqrt(dx*dx+dy*dy) * g.CellSize
				if d < best {
					best = d
				}
			}
			out.Set(cx, cy, best)
		}
	}
	return out
}

func TestDistanceTransformMatchesBruteForce(t *testing.T) {
	s := rng.New(77)
	for trial := 0; trial < 20; trial++ {
		g := testGeom(20+s.Intn(30), 20+s.Intn(30), 1+s.Float64()*10)
		mask := NewBitGrid(g)
		nSet := s.Intn(30)
		for i := 0; i < nSet; i++ {
			mask.Set(s.Intn(g.NX), s.Intn(g.NY), true)
		}
		got := DistanceTransform(mask)
		want := bruteDistance(mask)
		for i := range got.Data {
			gv, wv := got.Data[i], want.Data[i]
			if math.IsInf(wv, 1) {
				if !math.IsInf(gv, 1) {
					t.Fatalf("trial %d cell %d: got %v, want +Inf", trial, i, gv)
				}
				continue
			}
			if math.Abs(gv-wv) > 1e-9*math.Max(1, wv) {
				t.Fatalf("trial %d cell %d: got %v, want %v", trial, i, gv, wv)
			}
		}
	}
}

func TestDistanceTransformEmptyMask(t *testing.T) {
	mask := NewBitGrid(testGeom(10, 10, 5))
	dt := DistanceTransform(mask)
	for _, v := range dt.Data {
		if !math.IsInf(v, 1) {
			t.Fatal("empty mask should give +Inf everywhere")
		}
	}
}

func TestDistanceTransformSetCellsZero(t *testing.T) {
	mask := NewBitGrid(testGeom(15, 15, 3))
	mask.Set(7, 7, true)
	mask.Set(2, 11, true)
	dt := DistanceTransform(mask)
	if dt.At(7, 7) != 0 || dt.At(2, 11) != 0 {
		t.Error("set cells must have distance 0")
	}
	// Distance grows with cell size.
	if got := dt.At(8, 7); got != 3 {
		t.Errorf("adjacent cell distance = %v, want 3 (cell size)", got)
	}
	if got := dt.At(8, 8); math.Abs(got-3*math.Sqrt2) > 1e-9 {
		t.Errorf("diagonal distance = %v, want 3*sqrt2", got)
	}
}

func TestDilateByDistance(t *testing.T) {
	g := testGeom(21, 21, 1)
	mask := NewBitGrid(g)
	mask.Set(10, 10, true)
	grown := DilateByDistance(mask, 3)
	// Disc of radius 3 in cell units: cells within distance 3 of center.
	want := 0
	for cy := 0; cy < 21; cy++ {
		for cx := 0; cx < 21; cx++ {
			dx, dy := float64(cx-10), float64(cy-10)
			if math.Sqrt(dx*dx+dy*dy) <= 3 {
				want++
			}
		}
	}
	if grown.Count() != want {
		t.Errorf("dilated count = %d, want %d", grown.Count(), want)
	}
	if !grown.Get(10, 10) {
		t.Error("original cell must remain set")
	}
	same := DilateByDistance(mask, 0)
	if same.Count() != 1 {
		t.Error("zero distance should clone")
	}
}

func TestFillPolygonSquare(t *testing.T) {
	g := testGeom(20, 20, 1)
	// Square covering cells 5..14 in both axes (centers 5.5..14.5).
	poly := geom.NewPolygon(geom.NewRing(
		geom.Pt(5, 5), geom.Pt(15, 5), geom.Pt(15, 15), geom.Pt(5, 15),
	))
	mask := FillPolygon(g, poly)
	if mask.Count() != 100 {
		t.Errorf("filled cells = %d, want 100", mask.Count())
	}
	if !mask.Get(5, 5) || !mask.Get(14, 14) {
		t.Error("corner cells should be filled")
	}
	if mask.Get(4, 5) || mask.Get(15, 15) {
		t.Error("outside cells should not be filled")
	}
}

func TestFillPolygonWithHole(t *testing.T) {
	g := testGeom(20, 20, 1)
	poly := geom.NewPolygon(
		geom.NewRing(geom.Pt(2, 2), geom.Pt(18, 2), geom.Pt(18, 18), geom.Pt(2, 18)),
		geom.NewRing(geom.Pt(8, 8), geom.Pt(12, 8), geom.Pt(12, 12), geom.Pt(8, 12)),
	)
	mask := FillPolygon(g, poly)
	if mask.Get(10, 10) {
		t.Error("hole center should be unfilled")
	}
	if !mask.Get(5, 5) {
		t.Error("solid part should be filled")
	}
	want := 16*16 - 4*4
	if mask.Count() != want {
		t.Errorf("filled = %d, want %d", mask.Count(), want)
	}
}

func TestFillPolygonOffGrid(t *testing.T) {
	g := testGeom(10, 10, 1)
	poly := geom.NewPolygon(geom.NewRing(
		geom.Pt(100, 100), geom.Pt(110, 100), geom.Pt(110, 110), geom.Pt(100, 110),
	))
	if FillPolygon(g, poly).Count() != 0 {
		t.Error("off-grid polygon should fill nothing")
	}
	// Polygon partially off-grid clips.
	poly2 := geom.NewPolygon(geom.NewRing(
		geom.Pt(-5, -5), geom.Pt(5, -5), geom.Pt(5, 5), geom.Pt(-5, 5),
	))
	m := FillPolygon(g, poly2)
	if m.Count() != 25 {
		t.Errorf("clipped fill = %d, want 25", m.Count())
	}
}

func TestTraceContoursSingleCell(t *testing.T) {
	g := testGeom(5, 5, 2)
	mask := NewBitGrid(g)
	mask.Set(2, 2, true)
	mp := TraceContours(mask)
	if len(mp) != 1 {
		t.Fatalf("polygons = %d, want 1", len(mp))
	}
	p := mp[0]
	if len(p.Holes) != 0 {
		t.Error("single cell should have no holes")
	}
	if p.Area() != 4 {
		t.Errorf("area = %v, want 4", p.Area())
	}
	if !p.Exterior.IsCCW() {
		t.Error("exterior should be CCW")
	}
	if !p.ContainsPoint(g.Center(2, 2)) {
		t.Error("polygon should contain the cell center")
	}
}

func TestTraceContoursRectangle(t *testing.T) {
	g := testGeom(10, 10, 1)
	mask := NewBitGrid(g)
	for cy := 2; cy <= 5; cy++ {
		for cx := 3; cx <= 7; cx++ {
			mask.Set(cx, cy, true)
		}
	}
	mp := TraceContours(mask)
	if len(mp) != 1 {
		t.Fatalf("polygons = %d, want 1", len(mp))
	}
	if got := mp[0].Area(); got != 20 {
		t.Errorf("area = %v, want 20", got)
	}
	// Compressed rectangle should have exactly 4 vertices.
	if got := len(mp[0].Exterior); got != 4 {
		t.Errorf("vertices = %d, want 4", got)
	}
}

func TestTraceContoursWithHole(t *testing.T) {
	g := testGeom(12, 12, 1)
	mask := NewBitGrid(g)
	for cy := 1; cy <= 9; cy++ {
		for cx := 1; cx <= 9; cx++ {
			mask.Set(cx, cy, true)
		}
	}
	// Punch a 3x3 hole.
	for cy := 4; cy <= 6; cy++ {
		for cx := 4; cx <= 6; cx++ {
			mask.Set(cx, cy, false)
		}
	}
	mp := TraceContours(mask)
	if len(mp) != 1 {
		t.Fatalf("polygons = %d, want 1", len(mp))
	}
	if len(mp[0].Holes) != 1 {
		t.Fatalf("holes = %d, want 1", len(mp[0].Holes))
	}
	if got := mp[0].Area(); got != 81-9 {
		t.Errorf("area = %v, want 72", got)
	}
	if mp[0].ContainsPoint(g.Center(5, 5)) {
		t.Error("hole center must be outside the polygon")
	}
	if !mp[0].ContainsPoint(g.Center(2, 2)) {
		t.Error("ring interior must be inside")
	}
}

func TestTraceContoursTwoComponents(t *testing.T) {
	g := testGeom(12, 6, 1)
	mask := NewBitGrid(g)
	mask.Set(1, 1, true)
	mask.Set(1, 2, true)
	mask.Set(9, 3, true)
	mp := TraceContours(mask)
	if len(mp) != 2 {
		t.Fatalf("polygons = %d, want 2", len(mp))
	}
	if got := mp.Area(); got != 3 {
		t.Errorf("total area = %v, want 3", got)
	}
}

func TestTraceContoursDiagonalTouch(t *testing.T) {
	// Two cells touching only at a corner are separate components under
	// 4-connectivity and must trace to two simple polygons.
	g := testGeom(6, 6, 1)
	mask := NewBitGrid(g)
	mask.Set(2, 2, true)
	mask.Set(3, 3, true)
	mp := TraceContours(mask)
	if len(mp) != 2 {
		t.Fatalf("polygons = %d, want 2 (diagonal cells are disjoint)", len(mp))
	}
	for _, p := range mp {
		if p.Area() != 1 {
			t.Errorf("each diagonal cell area = %v, want 1", p.Area())
		}
	}
}

func TestTraceContoursEmpty(t *testing.T) {
	if mp := TraceContours(NewBitGrid(testGeom(5, 5, 1))); mp != nil {
		t.Errorf("empty mask contours = %v", mp)
	}
}

func TestFillTraceRoundTrip(t *testing.T) {
	// Fill a random blobby mask, trace, re-fill from traced polygons: must
	// reproduce the mask exactly (cell centers are strictly inside traced
	// rectilinear boundaries).
	s := rng.New(123)
	g := testGeom(40, 40, 1)
	mask := NewBitGrid(g)
	// A few random rectangles.
	for r := 0; r < 6; r++ {
		x0, y0 := s.Intn(30), s.Intn(30)
		w, h := 2+s.Intn(8), 2+s.Intn(8)
		for cy := y0; cy < y0+h && cy < 40; cy++ {
			for cx := x0; cx < x0+w && cx < 40; cx++ {
				mask.Set(cx, cy, true)
			}
		}
	}
	mp := TraceContours(mask)
	refill := NewBitGrid(g)
	FillPolygonsInto(refill, mp)
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			if mask.Get(cx, cy) != refill.Get(cx, cy) {
				t.Fatalf("round-trip mismatch at (%d,%d)", cx, cy)
			}
		}
	}
}

func TestWritePNG(t *testing.T) {
	c := NewClassGrid(testGeom(8, 8, 1))
	c.Set(1, 1, 1)
	var buf bytes.Buffer
	pal := Palette{0: {R: 0, G: 0, B: 0, A: 255}, 1: {R: 255, A: 255}}
	if err := c.WritePNG(&buf, pal); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 8 || string(buf.Bytes()[1:4]) != "PNG" {
		t.Error("output is not a PNG")
	}
}

func TestASCII(t *testing.T) {
	c := NewClassGrid(testGeom(3, 2, 1))
	c.Set(0, 1, 1) // NW corner
	got := c.ASCII(map[uint8]rune{1: '#'}, 0)
	want := "#..\n...\n"
	if got != want {
		t.Errorf("ASCII = %q, want %q", got, want)
	}
}

func BenchmarkDistanceTransform256(b *testing.B) {
	g := testGeom(256, 256, 270)
	mask := NewBitGrid(g)
	s := rng.New(9)
	for i := 0; i < 200; i++ {
		mask.Set(s.Intn(256), s.Intn(256), true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DistanceTransform(mask)
	}
}

func BenchmarkFillPolygon(b *testing.B) {
	g := testGeom(512, 512, 100)
	poly := geom.NewPolygon(geom.RegularRing(geom.Pt(25600, 25600), 20000, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FillPolygon(g, poly)
	}
}
