// Package geom provides the planar and geodetic geometry kernel used by the
// fivealarms risk analyses: points, bounding boxes, rings, polygons and
// multipolygons, together with the predicates (containment, intersection)
// and measures (area, length, centroid, distance) that the overlay engine
// is built on.
//
// # Coordinate conventions
//
// Geographic coordinates are stored as (X, Y) = (longitude, latitude) in
// decimal degrees on the WGS84 sphere. Projected coordinates (see package
// proj) use meters. All geometry algorithms in this package are planar; the
// geodesy helpers (Haversine, Destination, ...) operate on geographic
// coordinates explicitly.
package geom

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius (IUGG R1) used by all geodesic
// computations in this module.
const EarthRadiusMeters = 6371008.8

// MetersPerMile converts statute miles to meters. The paper's §3.8 extension
// buffers very-high WHP areas by half a mile.
const MetersPerMile = 1609.344

// SquareMetersPerAcre converts acres (the unit GeoMAC and the paper report
// burned area in) to square meters.
const SquareMetersPerAcre = 4046.8564224

// Point is a 2-D coordinate. For geographic data X is longitude and Y is
// latitude, both in decimal degrees.
type Point struct {
	X float64
	Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q treated as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product of p and q treated as
// vectors. Positive when q is counter-clockwise of p.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p treated as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// DistanceTo returns the planar Euclidean distance from p to q.
func (p Point) DistanceTo(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6f, %.6f)", p.X, p.Y) }

// BBox is an axis-aligned bounding box. A BBox is valid when MinX <= MaxX and
// MinY <= MaxY; the zero BBox is treated as empty.
type BBox struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyBBox returns a box that contains nothing and extends correctly under
// ExtendPoint/ExtendBBox.
func EmptyBBox() BBox {
	inf := math.Inf(1)
	return BBox{MinX: inf, MinY: inf, MaxX: -inf, MaxY: -inf}
}

// NewBBox returns the bounding box of the two corner points given in any
// order.
func NewBBox(a, b Point) BBox {
	return BBox{
		MinX: math.Min(a.X, b.X), MinY: math.Min(a.Y, b.Y),
		MaxX: math.Max(a.X, b.X), MaxY: math.Max(a.Y, b.Y),
	}
}

// IsEmpty reports whether the box contains no points.
func (b BBox) IsEmpty() bool { return b.MinX > b.MaxX || b.MinY > b.MaxY }

// Width returns the x-extent of the box, or 0 when empty.
func (b BBox) Width() float64 {
	if b.IsEmpty() {
		return 0
	}
	return b.MaxX - b.MinX
}

// Height returns the y-extent of the box, or 0 when empty.
func (b BBox) Height() float64 {
	if b.IsEmpty() {
		return 0
	}
	return b.MaxY - b.MinY
}

// Area returns the area of the box, or 0 when empty.
func (b BBox) Area() float64 { return b.Width() * b.Height() }

// Center returns the center of the box. Center of an empty box is undefined.
func (b BBox) Center() Point { return Point{(b.MinX + b.MaxX) / 2, (b.MinY + b.MaxY) / 2} }

// ContainsPoint reports whether p lies inside or on the boundary of b.
func (b BBox) ContainsPoint(p Point) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}

// Intersects reports whether b and o share at least one point (boundaries
// touching counts as intersecting).
func (b BBox) Intersects(o BBox) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.MinX <= o.MaxX && o.MinX <= b.MaxX && b.MinY <= o.MaxY && o.MinY <= b.MaxY
}

// ExtendPoint returns the smallest box containing both b and p.
func (b BBox) ExtendPoint(p Point) BBox {
	return BBox{
		MinX: math.Min(b.MinX, p.X), MinY: math.Min(b.MinY, p.Y),
		MaxX: math.Max(b.MaxX, p.X), MaxY: math.Max(b.MaxY, p.Y),
	}
}

// ExtendBBox returns the smallest box containing both b and o.
func (b BBox) ExtendBBox(o BBox) BBox {
	if o.IsEmpty() {
		return b
	}
	if b.IsEmpty() {
		return o
	}
	return BBox{
		MinX: math.Min(b.MinX, o.MinX), MinY: math.Min(b.MinY, o.MinY),
		MaxX: math.Max(b.MaxX, o.MaxX), MaxY: math.Max(b.MaxY, o.MaxY),
	}
}

// Buffer returns b expanded by d on every side. Negative d shrinks the box
// and may produce an empty box.
func (b BBox) Buffer(d float64) BBox {
	if b.IsEmpty() {
		return b
	}
	return BBox{MinX: b.MinX - d, MinY: b.MinY - d, MaxX: b.MaxX + d, MaxY: b.MaxY + d}
}

// Intersection returns the overlap of b and o; the result is empty when they
// do not intersect.
func (b BBox) Intersection(o BBox) BBox {
	r := BBox{
		MinX: math.Max(b.MinX, o.MinX), MinY: math.Max(b.MinY, o.MinY),
		MaxX: math.Min(b.MaxX, o.MaxX), MaxY: math.Min(b.MaxY, o.MaxY),
	}
	if r.IsEmpty() {
		return EmptyBBox()
	}
	return r
}

// DistanceTo returns the planar distance from p to the nearest point of
// b: exactly 0 when p lies inside or on the boundary, +Inf for an empty
// box.
func (b BBox) DistanceTo(p Point) float64 {
	if b.IsEmpty() {
		return math.Inf(1)
	}
	dx := 0.0
	if p.X < b.MinX {
		dx = b.MinX - p.X
	} else if p.X > b.MaxX {
		dx = p.X - b.MaxX
	}
	dy := 0.0
	if p.Y < b.MinY {
		dy = b.MinY - p.Y
	} else if p.Y > b.MaxY {
		dy = p.Y - b.MaxY
	}
	if dx == 0 && dy == 0 { //fivealarms:allow(floateq) inside-box fast path; dx/dy are exactly zero by construction above
		return 0
	}
	return math.Hypot(dx, dy)
}

// MaxDistanceTo returns the planar distance from p to the farthest point
// of b, which is always one of its corners; +Inf for an empty box.
func (b BBox) MaxDistanceTo(p Point) float64 {
	if b.IsEmpty() {
		return math.Inf(1)
	}
	dx := math.Max(math.Abs(p.X-b.MinX), math.Abs(p.X-b.MaxX))
	dy := math.Max(math.Abs(p.Y-b.MinY), math.Abs(p.Y-b.MaxY))
	return math.Hypot(dx, dy)
}

// String implements fmt.Stringer.
func (b BBox) String() string {
	return fmt.Sprintf("[%.6f,%.6f %.6f,%.6f]", b.MinX, b.MinY, b.MaxX, b.MaxY)
}
