package geom

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBBoxBasics(t *testing.T) {
	b := NewBBox(Pt(2, 5), Pt(-1, 1))
	if b.MinX != -1 || b.MinY != 1 || b.MaxX != 2 || b.MaxY != 5 {
		t.Fatalf("NewBBox normalized wrong: %v", b)
	}
	if got := b.Width(); got != 3 {
		t.Errorf("Width = %v, want 3", got)
	}
	if got := b.Height(); got != 4 {
		t.Errorf("Height = %v, want 4", got)
	}
	if got := b.Area(); got != 12 {
		t.Errorf("Area = %v, want 12", got)
	}
	if c := b.Center(); c != Pt(0.5, 3) {
		t.Errorf("Center = %v, want (0.5,3)", c)
	}
}

func TestBBoxEmpty(t *testing.T) {
	e := EmptyBBox()
	if !e.IsEmpty() {
		t.Fatal("EmptyBBox not empty")
	}
	if e.Area() != 0 || e.Width() != 0 || e.Height() != 0 {
		t.Error("empty box should have zero measures")
	}
	if e.Intersects(NewBBox(Pt(0, 0), Pt(1, 1))) {
		t.Error("empty box should intersect nothing")
	}
	got := e.ExtendPoint(Pt(3, 4))
	if got.IsEmpty() || got.MinX != 3 || got.MaxY != 4 {
		t.Errorf("ExtendPoint on empty = %v", got)
	}
}

func TestBBoxContainsIntersects(t *testing.T) {
	b := NewBBox(Pt(0, 0), Pt(10, 10))
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"inside", Pt(5, 5), true},
		{"corner", Pt(0, 0), true},
		{"edge", Pt(10, 3), true},
		{"outside right", Pt(10.01, 3), false},
		{"outside below", Pt(5, -0.01), false},
	}
	for _, tc := range tests {
		if got := b.ContainsPoint(tc.p); got != tc.want {
			t.Errorf("%s: ContainsPoint(%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}

	boxTests := []struct {
		name      string
		o         BBox
		intersect bool
	}{
		{"disjoint", NewBBox(Pt(20, 20), Pt(30, 30)), false},
		{"touching edge", NewBBox(Pt(10, 0), Pt(20, 10)), true},
		{"overlap", NewBBox(Pt(5, 5), Pt(15, 15)), true},
		{"inside", NewBBox(Pt(2, 2), Pt(8, 8)), true},
		{"equal", b, true},
	}
	for _, tc := range boxTests {
		if got := b.Intersects(tc.o); got != tc.intersect {
			t.Errorf("%s: Intersects = %v, want %v", tc.name, got, tc.intersect)
		}
	}
}

func TestBBoxIntersection(t *testing.T) {
	a := NewBBox(Pt(0, 0), Pt(10, 10))
	b := NewBBox(Pt(5, 5), Pt(15, 15))
	got := a.Intersection(b)
	want := NewBBox(Pt(5, 5), Pt(10, 10))
	if got != want {
		t.Errorf("Intersection = %v, want %v", got, want)
	}
	if !a.Intersection(NewBBox(Pt(20, 20), Pt(30, 30))).IsEmpty() {
		t.Error("disjoint intersection should be empty")
	}
}

func TestBBoxBuffer(t *testing.T) {
	b := NewBBox(Pt(0, 0), Pt(2, 2)).Buffer(1)
	if b.MinX != -1 || b.MaxY != 3 {
		t.Errorf("Buffer = %v", b)
	}
	if !NewBBox(Pt(0, 0), Pt(1, 1)).Buffer(-2).IsEmpty() {
		t.Error("over-shrunk box should be empty")
	}
}

func TestBBoxDistances(t *testing.T) {
	b := NewBBox(Pt(0, 0), Pt(4, 2))
	for _, tc := range []struct {
		p        Point
		min, max float64
	}{
		{Pt(1, 1), 0, math.Hypot(3, 1)},  // inside
		{Pt(4, 2), 0, math.Hypot(4, 2)},  // on a corner
		{Pt(7, 6), 5, math.Hypot(7, 6)},  // beyond a corner
		{Pt(2, -3), 3, math.Hypot(2, 5)}, // beside an edge
	} {
		if got := b.DistanceTo(tc.p); got != tc.min {
			t.Errorf("DistanceTo(%v) = %v, want %v", tc.p, got, tc.min)
		}
		if got := b.MaxDistanceTo(tc.p); got != tc.max {
			t.Errorf("MaxDistanceTo(%v) = %v, want %v", tc.p, got, tc.max)
		}
	}
	if !math.IsInf(EmptyBBox().DistanceTo(Pt(0, 0)), 1) || !math.IsInf(EmptyBBox().MaxDistanceTo(Pt(0, 0)), 1) {
		t.Error("an empty box must be infinitely far")
	}
}

func TestWeightedVoronoiCandidates(t *testing.T) {
	seeds := []Point{Pt(0, 0), Pt(100, 0), Pt(2, 0), Pt(100, 0), Pt(1000, 0), Pt(3, 0)}
	weights := []float64{1, 1, 1, 100, -1, 1}
	box := NewBBox(Pt(-1, -1), Pt(1, 1))
	// Seed 3's weight brings its worst case down to hypot(101, 1)/100,
	// about 1.01, which sets the bound. Seeds 0 and 2 have best cases of
	// 0 and 1, within it; seeds 1 and 5, at 99 and 2, are dropped. The
	// non-positive weight is always kept.
	got := WeightedVoronoiCandidates([]int{7}, box, seeds, weights)
	if want := []int{7, 0, 2, 3, 4}; !slices.Equal(got, want) {
		t.Errorf("candidates = %v, want %v", got, want)
	}
	if got := WeightedVoronoiCandidates(nil, EmptyBBox(), seeds, weights); len(got) != len(seeds) {
		t.Errorf("an empty box kept %v, want every seed", got)
	}
	if got := WeightedVoronoiCandidates(nil, box, nil, nil); len(got) != 0 {
		t.Errorf("no seeds kept %v", got)
	}
}

func TestRingAreaOrientation(t *testing.T) {
	sq := NewRing(Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4))
	if got := sq.SignedArea(); got != 16 {
		t.Errorf("CCW square SignedArea = %v, want 16", got)
	}
	if !sq.IsCCW() {
		t.Error("square should be CCW")
	}
	rev := sq.Reverse()
	if got := rev.SignedArea(); got != -16 {
		t.Errorf("reversed square SignedArea = %v, want -16", got)
	}
	if got := rev.Area(); got != 16 {
		t.Errorf("Area should be unsigned: %v", got)
	}
}

func TestNewRingStripsClosingVertex(t *testing.T) {
	r := NewRing(Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 0))
	if len(r) != 3 {
		t.Fatalf("closing vertex not stripped: len=%d", len(r))
	}
}

func TestRingCentroid(t *testing.T) {
	sq := NewRing(Pt(1, 1), Pt(5, 1), Pt(5, 5), Pt(1, 5))
	c := sq.Centroid()
	if !almostEqual(c.X, 3, 1e-12) || !almostEqual(c.Y, 3, 1e-12) {
		t.Errorf("Centroid = %v, want (3,3)", c)
	}
	// Degenerate: all points collinear -> vertex mean.
	line := Ring{Pt(0, 0), Pt(2, 0), Pt(4, 0)}
	c = line.Centroid()
	if !almostEqual(c.X, 2, 1e-12) || !almostEqual(c.Y, 0, 1e-12) {
		t.Errorf("degenerate Centroid = %v, want (2,0)", c)
	}
}

func TestRingPerimeter(t *testing.T) {
	sq := NewRing(Pt(0, 0), Pt(3, 0), Pt(3, 4), Pt(0, 4))
	if got := sq.Perimeter(); got != 14 {
		t.Errorf("Perimeter = %v, want 14", got)
	}
}

func TestRingContainsPoint(t *testing.T) {
	// Concave "L" shape.
	l := NewRing(Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4))
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"inside lower arm", Pt(3, 1), true},
		{"inside upper arm", Pt(1, 3), true},
		{"inside corner", Pt(1, 1), true},
		{"in notch", Pt(3, 3), false},
		{"outside", Pt(5, 5), false},
		{"far left", Pt(-1, 2), false},
	}
	for _, tc := range tests {
		if got := l.ContainsPoint(tc.p); got != tc.want {
			t.Errorf("%s: ContainsPoint(%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
}

func TestRingContainsPointInvalid(t *testing.T) {
	if (Ring{Pt(0, 0), Pt(1, 1)}).ContainsPoint(Pt(0.5, 0.5)) {
		t.Error("invalid ring should contain nothing")
	}
}

func TestRingOnBoundary(t *testing.T) {
	sq := NewRing(Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4))
	if !sq.OnBoundary(Pt(2, 0), 1e-9) {
		t.Error("edge midpoint should be on boundary")
	}
	if !sq.OnBoundary(Pt(2, 0.05), 0.1) {
		t.Error("near-edge point within tol should be on boundary")
	}
	if sq.OnBoundary(Pt(2, 2), 0.1) {
		t.Error("center should not be on boundary")
	}
}

func TestPolygonWithHole(t *testing.T) {
	outer := NewRing(Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10))
	hole := NewRing(Pt(4, 4), Pt(6, 4), Pt(6, 6), Pt(4, 6))
	p := NewPolygon(outer, hole)
	if got := p.Area(); got != 96 {
		t.Errorf("Area = %v, want 96", got)
	}
	if p.ContainsPoint(Pt(5, 5)) {
		t.Error("point in hole should be outside")
	}
	if !p.ContainsPoint(Pt(2, 2)) {
		t.Error("point in solid part should be inside")
	}
	if p.ContainsPoint(Pt(11, 5)) {
		t.Error("point outside exterior should be outside")
	}
}

func TestPolygonCentroidWithHole(t *testing.T) {
	// A square with an off-center hole shifts the centroid away from the hole.
	outer := NewRing(Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10))
	hole := NewRing(Pt(6, 4), Pt(9, 4), Pt(9, 7), Pt(6, 7))
	p := NewPolygon(outer, hole)
	c := p.Centroid()
	if c.X >= 5 {
		t.Errorf("centroid should shift left of 5, got %v", c)
	}
}

func TestMultiPolygon(t *testing.T) {
	m := MultiPolygon{
		NewPolygon(NewRing(Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2))),
		NewPolygon(NewRing(Pt(10, 10), Pt(14, 10), Pt(14, 14), Pt(10, 14))),
	}
	if got := m.Area(); got != 20 {
		t.Errorf("Area = %v, want 20", got)
	}
	if !m.ContainsPoint(Pt(1, 1)) || !m.ContainsPoint(Pt(12, 12)) {
		t.Error("points in members should be contained")
	}
	if m.ContainsPoint(Pt(5, 5)) {
		t.Error("gap point should not be contained")
	}
	bb := m.BBox()
	if bb.MinX != 0 || bb.MaxX != 14 {
		t.Errorf("BBox = %v", bb)
	}
	c := m.Centroid()
	// Weighted: (1,1)*4 + (12,12)*16 over 20 => (9.8, 9.8).
	if !almostEqual(c.X, 9.8, 1e-9) || !almostEqual(c.Y, 9.8, 1e-9) {
		t.Errorf("Centroid = %v, want (9.8, 9.8)", c)
	}
}

func TestHaversineKnownDistances(t *testing.T) {
	tests := []struct {
		name   string
		a, b   Point
		wantKM float64
		tolKM  float64
	}{
		{"LA to SF", Pt(-118.2437, 34.0522), Pt(-122.4194, 37.7749), 559, 10},
		{"NYC to LA", Pt(-74.0060, 40.7128), Pt(-118.2437, 34.0522), 3936, 40},
		{"same point", Pt(-100, 40), Pt(-100, 40), 0, 1e-9},
		{"one degree lat at equator", Pt(0, 0), Pt(0, 1), 111.195, 0.2},
	}
	for _, tc := range tests {
		got := Haversine(tc.a, tc.b) / 1000
		if !almostEqual(got, tc.wantKM, tc.tolKM) {
			t.Errorf("%s: Haversine = %.1f km, want %.1f±%.1f", tc.name, got, tc.wantKM, tc.tolKM)
		}
	}
}

func TestHaversineSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Point{math.Mod(ax, 180), math.Mod(ay, 85)}
		b := Point{math.Mod(bx, 180), math.Mod(by, 85)}
		d1 := Haversine(a, b)
		d2 := Haversine(b, a)
		return almostEqual(d1, d2, 1e-6) && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	start := Pt(-105.0, 39.7) // Denver
	for _, brg := range []float64{0, 45, 90, 135, 180, 225, 270, 315} {
		for _, dist := range []float64{1000, 50000, 500000} {
			end := Destination(start, brg, dist)
			got := Haversine(start, end)
			if !almostEqual(got, dist, dist*1e-6+0.01) {
				t.Errorf("bearing %v dist %v: round-trip distance %v", brg, dist, got)
			}
		}
	}
}

func TestDestinationBearing(t *testing.T) {
	start := Pt(-100, 40)
	north := Destination(start, 0, 100000)
	if north.Y <= start.Y {
		t.Error("bearing 0 should move north")
	}
	east := Destination(start, 90, 100000)
	if east.X <= start.X {
		t.Error("bearing 90 should move east")
	}
	if !almostEqual(east.Y, start.Y, 0.2) {
		t.Errorf("bearing 90 should roughly preserve latitude, got %v", east.Y)
	}
}

func TestInitialBearing(t *testing.T) {
	if b := InitialBearing(Pt(0, 0), Pt(0, 10)); !almostEqual(b, 0, 1e-9) {
		t.Errorf("due north bearing = %v", b)
	}
	if b := InitialBearing(Pt(0, 0), Pt(10, 0)); !almostEqual(b, 90, 1e-9) {
		t.Errorf("due east bearing = %v", b)
	}
	if b := InitialBearing(Pt(0, 0), Pt(0, -10)); !almostEqual(b, 180, 1e-9) {
		t.Errorf("due south bearing = %v", b)
	}
}

func TestGeographicRingArea(t *testing.T) {
	// 1x1 degree cell near the equator: ~111.195^2 km^2 = 1.2364e10 m^2.
	r := NewRing(Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1))
	got := GeographicRingArea(r)
	want := 1.2364e10
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("equator cell area = %.4g, want ~%.4g", got, want)
	}
	// The same cell at 60N should be about half the area (cos 60 = 0.5).
	r60 := NewRing(Pt(0, 60), Pt(1, 60), Pt(1, 61), Pt(0, 61))
	got60 := GeographicRingArea(r60)
	ratio := got60 / got
	if ratio < 0.42 || ratio > 0.55 {
		t.Errorf("60N/equator area ratio = %v, want ~0.48", ratio)
	}
}

func TestAcres(t *testing.T) {
	if got := Acres(SquareMetersPerAcre * 100); !almostEqual(got, 100, 1e-9) {
		t.Errorf("Acres = %v, want 100", got)
	}
}

func TestMetersPerDegree(t *testing.T) {
	if got := MetersPerDegreeLat(); !almostEqual(got, 111195, 10) {
		t.Errorf("MetersPerDegreeLat = %v", got)
	}
	if got := MetersPerDegreeLon(0); !almostEqual(got, 111195, 10) {
		t.Errorf("MetersPerDegreeLon(0) = %v", got)
	}
	if got := MetersPerDegreeLon(60); !almostEqual(got, 111195.0/2, 30) {
		t.Errorf("MetersPerDegreeLon(60) = %v", got)
	}
}

func TestGeographicBufferBBox(t *testing.T) {
	b := NewBBox(Pt(-120, 35), Pt(-119, 36))
	buf := GeographicBufferBBox(b, 10000)
	if buf.Intersection(b) != b {
		t.Error("buffered box must contain original")
	}
	// Latitude padding should be ~0.09 degrees.
	if pad := b.MinY - buf.MinY; !almostEqual(pad, 0.0899, 0.001) {
		t.Errorf("lat pad = %v", pad)
	}
	// Longitude padding should exceed latitude padding at this latitude.
	if lonPad := b.MinX - buf.MinX; lonPad <= b.MinY-buf.MinY {
		t.Errorf("lon pad %v should exceed lat pad at 36N", lonPad)
	}
}

func TestSegmentsIntersect(t *testing.T) {
	tests := []struct {
		name       string
		a, b, c, d Point
		want       bool
	}{
		{"crossing X", Pt(0, 0), Pt(2, 2), Pt(0, 2), Pt(2, 0), true},
		{"parallel", Pt(0, 0), Pt(2, 0), Pt(0, 1), Pt(2, 1), false},
		{"touching endpoint", Pt(0, 0), Pt(2, 2), Pt(2, 2), Pt(4, 0), true},
		{"collinear overlap", Pt(0, 0), Pt(4, 0), Pt(2, 0), Pt(6, 0), true},
		{"collinear disjoint", Pt(0, 0), Pt(1, 0), Pt(2, 0), Pt(3, 0), false},
		{"T junction", Pt(0, 0), Pt(4, 0), Pt(2, -2), Pt(2, 0), true},
		{"near miss", Pt(0, 0), Pt(4, 0), Pt(2, 0.001), Pt(2, 5), false},
	}
	for _, tc := range tests {
		if got := SegmentsIntersect(tc.a, tc.b, tc.c, tc.d); got != tc.want {
			t.Errorf("%s: = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDistancePointSegment(t *testing.T) {
	tests := []struct {
		name    string
		p, a, b Point
		want    float64
	}{
		{"perpendicular", Pt(2, 3), Pt(0, 0), Pt(4, 0), 3},
		{"beyond a", Pt(-3, 4), Pt(0, 0), Pt(4, 0), 5},
		{"beyond b", Pt(7, 4), Pt(0, 0), Pt(4, 0), 5},
		{"degenerate segment", Pt(3, 4), Pt(0, 0), Pt(0, 0), 5},
		{"on segment", Pt(2, 0), Pt(0, 0), Pt(4, 0), 0},
	}
	for _, tc := range tests {
		if got := DistancePointSegment(tc.p, tc.a, tc.b); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("%s: = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRegularRing(t *testing.T) {
	c := Pt(5, 5)
	r := RegularRing(c, 2, 64)
	if len(r) != 64 {
		t.Fatalf("len = %d", len(r))
	}
	// Area approaches pi*r^2 = 12.566.
	if !almostEqual(r.Area(), math.Pi*4, 0.05) {
		t.Errorf("area = %v, want ~%v", r.Area(), math.Pi*4)
	}
	if !r.ContainsPoint(c) {
		t.Error("center should be inside")
	}
	got := RegularRing(c, 1, 2)
	if len(got) != 3 {
		t.Errorf("n<3 should clamp to 3, got %d", len(got))
	}
}

func TestPointVectorOps(t *testing.T) {
	a, b := Pt(3, 4), Pt(1, 2)
	if a.Add(b) != Pt(4, 6) {
		t.Error("Add")
	}
	if a.Sub(b) != Pt(2, 2) {
		t.Error("Sub")
	}
	if a.Scale(2) != Pt(6, 8) {
		t.Error("Scale")
	}
	if a.Dot(b) != 11 {
		t.Error("Dot")
	}
	if a.Cross(b) != 2 {
		t.Error("Cross")
	}
	if a.Norm() != 5 {
		t.Error("Norm")
	}
	if a.DistanceTo(Pt(0, 0)) != 5 {
		t.Error("DistanceTo")
	}
}

func TestRingContainsPointProperty(t *testing.T) {
	// For a convex ring, ContainsPoint must agree with the half-plane test.
	hexagon := RegularRing(Pt(0, 0), 10, 6)
	f := func(x, y float64) bool {
		p := Point{math.Mod(x, 20), math.Mod(y, 20)}
		got := hexagon.ContainsPoint(p)
		want := true
		n := len(hexagon)
		for i := 0; i < n; i++ {
			if orient(hexagon[i], hexagon[(i+1)%n], p) < 0 {
				want = false
				break
			}
		}
		// Skip points within epsilon of the boundary where the two tests
		// may legitimately disagree.
		if hexagon.OnBoundary(p, 1e-9) {
			return true
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPointsBBox(t *testing.T) {
	b := PointsBBox([]Point{{1, 5}, {-2, 3}, {4, -1}})
	if b.MinX != -2 || b.MinY != -1 || b.MaxX != 4 || b.MaxY != 5 {
		t.Errorf("PointsBBox = %v", b)
	}
	if !PointsBBox(nil).IsEmpty() {
		t.Error("empty input should give empty box")
	}
}
