package refimpl

import (
	"math"
	"reflect"
	"testing"

	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
)

// The reference implementations are the ground truth of the differential
// suite, so they get their own hand-computed sanity tests: if a twin
// drifted, every diff test downstream would chase a phantom.

func unitSquare() geom.Ring {
	return geom.Ring{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4)}
}

func TestRingContainsHandCases(t *testing.T) {
	sq := unitSquare()
	cases := []struct {
		p    geom.Point
		want bool
	}{
		{geom.Pt(2, 2), true},
		{geom.Pt(-1, 2), false},
		{geom.Pt(5, 2), false},
		{geom.Pt(2, -1), false},
		{geom.Pt(2, 5), false},
		{geom.Pt(0.001, 0.001), true},
		{geom.Pt(3.999, 3.999), true},
	}
	for _, c := range cases {
		if got := RingContains(sq, c.p); got != c.want {
			t.Errorf("RingContains(square, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if RingContains(geom.Ring{geom.Pt(0, 0), geom.Pt(1, 1)}, geom.Pt(0.5, 0.5)) {
		t.Error("two-vertex ring must contain nothing")
	}
	if RingContains(nil, geom.Pt(0, 0)) {
		t.Error("nil ring must contain nothing")
	}
}

func TestPolygonContainsRespectsHoles(t *testing.T) {
	pg := geom.Polygon{
		Exterior: unitSquare(),
		Holes:    []geom.Ring{{geom.Pt(1, 1), geom.Pt(3, 1), geom.Pt(3, 3), geom.Pt(1, 3)}},
	}
	if !PolygonContains(pg, geom.Pt(0.5, 0.5)) {
		t.Error("point between exterior and hole must be inside")
	}
	if PolygonContains(pg, geom.Pt(2, 2)) {
		t.Error("point inside hole must be outside")
	}
	m := geom.MultiPolygon{pg, {Exterior: geom.Ring{geom.Pt(10, 10), geom.Pt(12, 10), geom.Pt(12, 12), geom.Pt(10, 12)}}}
	if !MultiPolygonContains(m, geom.Pt(11, 11)) {
		t.Error("point in second member must be inside")
	}
	if MultiPolygonContains(m, geom.Pt(7, 7)) {
		t.Error("point between members must be outside")
	}
}

func TestFillMultiPolygonHandCase(t *testing.T) {
	g := raster.Geometry{MinX: 0, MinY: 0, CellSize: 1, NX: 4, NY: 4}
	// Square covering cell centers (0.5..2.5)² → the 3x3 lower-left block.
	m := geom.MultiPolygon{{Exterior: geom.Ring{geom.Pt(0, 0), geom.Pt(2.9, 0), geom.Pt(2.9, 2.9), geom.Pt(0, 2.9)}}}
	mask := FillMultiPolygon(g, m)
	if got := mask.Count(); got != 9 {
		t.Fatalf("filled %d cells, want 9", got)
	}
	if mask.Get(3, 0) || mask.Get(0, 3) {
		t.Error("cells beyond the square must stay clear")
	}
	// Union semantics: filling again into the same mask changes nothing.
	FillMultiPolygonInto(mask, m)
	if got := mask.Count(); got != 9 {
		t.Errorf("refill changed count to %d", got)
	}
}

func TestTraceContoursHandCase(t *testing.T) {
	g := raster.Geometry{MinX: 0, MinY: 0, CellSize: 1, NX: 8, NY: 7}
	if mp := TraceContours(raster.NewBitGrid(g)); mp != nil {
		t.Fatalf("empty mask traced to %v", mp)
	}
	// A 5x5 annulus around an island cell, plus a cell touching the
	// annulus only at a corner. The hole's centroid is the island's
	// centre, so only an in-hole probe gives the hole to the annulus.
	mask := raster.NewBitGrid(g)
	for cy := 1; cy <= 5; cy++ {
		for cx := 1; cx <= 5; cx++ {
			if cx == 1 || cx == 5 || cy == 1 || cy == 5 {
				mask.Set(cx, cy, true)
			}
		}
	}
	mask.Set(3, 3, true)
	mask.Set(6, 6, true)
	mp := TraceContours(mask)
	if len(mp) != 3 {
		t.Fatalf("traced %d polygons, want annulus, island, corner cell", len(mp))
	}
	wantExt := geom.Ring{geom.Pt(1, 1), geom.Pt(6, 1), geom.Pt(6, 6), geom.Pt(1, 6)}
	wantHole := geom.Ring{geom.Pt(2, 2), geom.Pt(2, 5), geom.Pt(5, 5), geom.Pt(5, 2)}
	if !reflect.DeepEqual(mp[0].Exterior, wantExt) || len(mp[0].Holes) != 1 || !reflect.DeepEqual(mp[0].Holes[0], wantHole) {
		t.Errorf("annulus = %v, want exterior %v with hole %v", mp[0], wantExt, wantHole)
	}
	for i, want := range []float64{1, 1} {
		if p := mp[i+1]; len(p.Holes) != 0 || p.Area() != want {
			t.Errorf("polygon %d = %v, want a hole-free unit cell", i+1, p)
		}
	}
	refill := FillMultiPolygon(g, mp)
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			if refill.Get(cx, cy) != mask.Get(cx, cy) {
				t.Fatalf("cell (%d,%d): refilled %v, mask %v", cx, cy, refill.Get(cx, cy), mask.Get(cx, cy))
			}
		}
	}
}

func TestDistanceTransformHandCase(t *testing.T) {
	g := raster.Geometry{MinX: 0, MinY: 0, CellSize: 10, NX: 3, NY: 3}
	mask := raster.NewBitGrid(g)
	mask.Set(0, 0, true)
	dt := DistanceTransform(mask)
	if dt.At(0, 0) != 0 {
		t.Errorf("set cell distance = %g, want 0", dt.At(0, 0))
	}
	if dt.At(2, 0) != 20 {
		t.Errorf("(2,0) distance = %g, want 20", dt.At(2, 0))
	}
	if want := math.Sqrt(8) * 10; dt.At(2, 2) != want {
		t.Errorf("(2,2) distance = %g, want %g", dt.At(2, 2), want)
	}
	empty := DistanceTransform(raster.NewBitGrid(g))
	if !math.IsInf(empty.At(1, 1), 1) {
		t.Error("empty mask must transform to +Inf")
	}
	grown := DilateByDistance(mask, 10)
	if grown.Count() != 3 { // (0,0), (1,0), (0,1); diagonal is sqrt(2)*10 > 10
		t.Errorf("dilate by one cell = %d cells, want 3", grown.Count())
	}
	if clone := DilateByDistance(mask, 0); clone.Count() != 1 {
		t.Error("dist<=0 must clone")
	}
}

func TestPointQueries(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 5, Y: 5}, {X: 1, Y: 0}}
	got := RangeQuery(pts, geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	if len(got) != 4 {
		t.Errorf("RangeQuery = %v, want the four unit-box points (duplicates included)", got)
	}
	if got := RadiusQuery(pts, geom.Pt(0, 0), 1); len(got) != 4 {
		t.Errorf("RadiusQuery r=1 = %v, want 4 hits (boundary inclusive, duplicates included)", got)
	}
	if got := RadiusQuery(pts, geom.Pt(0, 0), -1); got != nil {
		t.Errorf("negative radius must match nothing, got %v", got)
	}
}

func TestWeightedNearestHandCases(t *testing.T) {
	seeds := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 0}}
	weights := []float64{1, 4, 4}
	// At x=2 seed 0 is 2 away; seed 1 is 8/4 = 2 away: the tie keeps the
	// first. Just right of it the heavy seed wins, and its duplicate never
	// does.
	if got := WeightedNearest(geom.Pt(2, 0), seeds, weights); got != 0 {
		t.Errorf("tie at x=2 picked %d, want 0", got)
	}
	if got := WeightedNearest(geom.Pt(3, 0), seeds, weights); got != 1 {
		t.Errorf("x=3 picked %d, want 1", got)
	}
	if got := WeightedNearest(geom.Pt(1, 0), nil, nil); got != -1 {
		t.Errorf("no seeds picked %d, want -1", got)
	}
}

func TestAlbersSelfConsistency(t *testing.T) {
	a := Albers{Phi1: 29.5, Phi2: 45.5, Phi0: 23, Lon0: -96}
	// The origin maps to (0, 0) by construction.
	at := a.Forward(geom.Pt(-96, 23))
	if math.Abs(at.X) > 1e-6 || math.Abs(at.Y) > 1e-6 {
		t.Errorf("origin maps to %v, want (0,0)", at)
	}
	for _, ll := range []geom.Point{{X: -120, Y: 39}, {X: -75, Y: 41}, {X: -96, Y: 23}, {X: -179.9, Y: 30}} {
		rt := a.Inverse(a.Forward(ll))
		if math.Abs(rt.X-ll.X) > 1e-9 || math.Abs(rt.Y-ll.Y) > 1e-9 {
			t.Errorf("round trip of %v = %v", ll, rt)
		}
	}
}
