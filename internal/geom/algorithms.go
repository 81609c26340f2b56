package geom

import "math"

// SegmentsIntersect reports whether segments ab and cd share at least one
// point, including collinear overlap and endpoint touching.
//
//fivealarms:allow(floateq) orient()==0 is the exact collinearity predicate; an epsilon would disagree with the refimpl twin
func SegmentsIntersect(a, b, c, d Point) bool {
	d1 := orient(c, d, a)
	d2 := orient(c, d, b)
	d3 := orient(a, b, c)
	d4 := orient(a, b, d)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && onSegment(c, d, a):
		return true
	case d2 == 0 && onSegment(c, d, b):
		return true
	case d3 == 0 && onSegment(a, b, c):
		return true
	case d4 == 0 && onSegment(a, b, d):
		return true
	}
	return false
}

// orient returns >0 when c is counter-clockwise of ray ab, <0 clockwise and
// 0 when collinear.
func orient(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment reports whether collinear point p lies on segment ab.
func onSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

// douglasPeucker marks in keep the vertices of pts[lo+1:hi] that the
// Douglas-Peucker simplification keeps at tolerance tol.
func douglasPeucker(pts []Point, lo, hi int, tol float64, keep []bool) {
	if hi-lo < 2 {
		return
	}
	var maxD float64
	maxI := -1
	for i := lo + 1; i < hi; i++ {
		d := DistancePointSegment(pts[i], pts[lo], pts[hi])
		if d > maxD {
			maxD = d
			maxI = i
		}
	}
	if maxD > tol {
		keep[maxI] = true
		douglasPeucker(pts, lo, maxI, tol, keep)
		douglasPeucker(pts, maxI, hi, tol, keep)
	}
}

// PointsBBox returns the bounding box of a point set.
func PointsBBox(pts []Point) BBox {
	b := EmptyBBox()
	for _, p := range pts {
		b = b.ExtendPoint(p)
	}
	return b
}
