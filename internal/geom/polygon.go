package geom

// Polygon is a planar polygon with one exterior ring and zero or more
// interior rings (holes). Hole rings must lie inside the exterior ring; the
// package does not verify this invariant, matching the permissiveness of
// typical GIS formats.
type Polygon struct {
	Exterior Ring
	Holes    []Ring
}

// NewPolygon builds a polygon from an exterior ring and optional holes.
func NewPolygon(exterior Ring, holes ...Ring) Polygon {
	return Polygon{Exterior: exterior, Holes: holes}
}

// Valid reports whether the polygon has a usable exterior ring.
func (p Polygon) Valid() bool { return p.Exterior.Valid() }

// BBox returns the bounding box of the exterior ring.
func (p Polygon) BBox() BBox { return p.Exterior.BBox() }

// Area returns the planar area of the polygon: exterior area minus the area
// of all holes.
func (p Polygon) Area() float64 {
	a := p.Exterior.Area()
	for _, h := range p.Holes {
		a -= h.Area()
	}
	return a
}

// Centroid returns the area-weighted centroid accounting for holes.
func (p Polygon) Centroid() Point {
	aExt := p.Exterior.Area()
	if aExt == 0 { //fivealarms:allow(floateq) degenerate-polygon guard before dividing by the area
		return p.Exterior.Centroid()
	}
	c := p.Exterior.Centroid().Scale(aExt)
	total := aExt
	for _, h := range p.Holes {
		ha := h.Area()
		c = c.Sub(h.Centroid().Scale(ha))
		total -= ha
	}
	if total == 0 { //fivealarms:allow(floateq) degenerate-polygon guard before dividing by the area
		return p.Exterior.Centroid()
	}
	return c.Scale(1 / total)
}

// ContainsPoint reports whether pt lies inside the polygon (inside the
// exterior and outside every hole).
func (p Polygon) ContainsPoint(pt Point) bool {
	if !p.Exterior.ContainsPoint(pt) {
		return false
	}
	for _, h := range p.Holes {
		if h.ContainsPoint(pt) {
			return false
		}
	}
	return true
}

// MultiPolygon is a collection of polygons treated as one geometry, the
// shape wildfire perimeters commonly take (a fire can burn in several
// disjoint patches).
type MultiPolygon []Polygon

// BBox returns the bounding box of all member polygons.
func (m MultiPolygon) BBox() BBox {
	b := EmptyBBox()
	for _, p := range m {
		b = b.ExtendBBox(p.BBox())
	}
	return b
}

// Area returns the summed area of all member polygons.
func (m MultiPolygon) Area() float64 {
	var a float64
	for _, p := range m {
		a += p.Area()
	}
	return a
}

// ContainsPoint reports whether pt lies inside any member polygon.
func (m MultiPolygon) ContainsPoint(pt Point) bool {
	for _, p := range m {
		if p.ContainsPoint(pt) {
			return true
		}
	}
	return false
}

// Centroid returns the area-weighted centroid of the collection.
func (m MultiPolygon) Centroid() Point {
	var c Point
	var total float64
	for _, p := range m {
		a := p.Area()
		c = c.Add(p.Centroid().Scale(a))
		total += a
	}
	if total == 0 { //fivealarms:allow(floateq) degenerate-multipolygon guard before dividing by the area
		if len(m) > 0 {
			return m[0].Centroid()
		}
		return Point{}
	}
	return c.Scale(1 / total)
}
