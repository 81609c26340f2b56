package geom

import "math"

// Prepared geometries: containment-optimized forms of Ring, Polygon and
// MultiPolygon that are built once and then answer point-in-polygon
// queries in roughly O(edges whose y-span crosses the query point)
// instead of O(all edges). Every overlay analysis in the study — the
// Table 1 historical join, the §3.4 validation, the §3.8 fine extension
// and the PSPS outage simulation — reduces to millions of containment
// tests against a few hundred fire perimeters, so the one-time
// preparation cost (linear in the edge count) is repaid after a handful
// of queries per geometry.
//
// A prepared geometry answers exactly like its naive counterpart: the
// crossing test uses the multiply form of the same even-odd ray cast,
// which is algebraically identical to Ring.ContainsPoint's division form
// and bit-identical on the rectilinear perimeters the fire tracer emits
// (axis-aligned edges make both forms exact). Points within a few ulps
// of a boundary edge may differ on arbitrary diagonal edges, the same
// regime where ContainsPoint itself documents boundary behavior as
// unspecified.
//
// Preparation is a pure read of the source geometry; the prepared forms
// are immutable afterwards and safe for concurrent use by any number of
// goroutines.

// prepEdge is one non-horizontal boundary edge. Endpoints are stored
// verbatim (not as deltas) so the crossing test reproduces the naive
// arithmetic exactly on axis-aligned edges.
type prepEdge struct {
	ax, ay float64
	bx, by float64
}

// crosses applies the even-odd crossing test for the horizontal ray from
// (x, y) to +inf against the edge, using the multiply form: p.X < xCross
// with xCross = (bx-ax)*(y-ay)/(by-ay) + ax, cross-multiplied by (by-ay)
// so no division is performed.
func (e *prepEdge) crosses(x, y float64) bool {
	if (e.ay > y) == (e.by > y) {
		return false
	}
	lhs := (x - e.ax) * (e.by - e.ay)
	rhs := (e.bx - e.ax) * (y - e.ay)
	if e.by > e.ay {
		return lhs < rhs
	}
	return lhs > rhs
}

// maxBands bounds the scanline index size; beyond ~one band per two
// edges the extra bands only duplicate tall edges without shrinking the
// per-query candidate set.
const maxBands = 512

// smallRingEdges is the banding threshold: at or below this edge count a
// linear scan is as fast as a banded lookup, so the index (and its two
// allocations) is skipped. Fire perimeters fragment into many small
// rings, making this the hot preparation path.
const smallRingEdges = 24

// PreparedRing is a Ring preprocessed for fast containment: bounding-box
// fast-reject, an interior-box fast-accept, and edges bucketed into
// y-interval bands so a query touches only the edges whose y-span can
// cross its scanline.
type PreparedRing struct {
	bbox     BBox
	interior BBox // fully inside the ring; empty when none was found
	edges    []prepEdge
	// CSR layout: bandIdx[bandOff[b]:bandOff[b+1]] lists the edges whose
	// y-span intersects band b.
	bandOff  []int32
	bandIdx  []int32
	invBandH float64
	nBands   int
}

// PrepareRing builds the prepared form of r. An invalid ring (fewer than
// three vertices) prepares to a form that contains nothing, matching
// Ring.ContainsPoint.
func PrepareRing(r Ring) *PreparedRing {
	p := &PreparedRing{}
	prepareRingInto(p, r, nil)
	return p
}

// countEdges returns the number of non-horizontal edges of r.
func countEdges(r Ring) int {
	if !r.Valid() {
		return 0
	}
	n, c := len(r), 0
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		if r[j].Y != r[i].Y { //fivealarms:allow(floateq) exact horizontal-edge test, the same predicate the crossing rule uses
			c++
		}
	}
	return c
}

// prepareRingInto fills p in place, appending its edges to pool and
// returning the extended pool. Aggregate geometries pre-size one pool
// for all their rings (see PrepareMultiPolygon), so preparation costs
// one edge allocation per geometry instead of one per ring; a nil pool
// allocates per ring. Shared pools must have capacity for every edge up
// front — p.edges is a capacity-clamped sub-slice, which later appends
// must not displace.
func prepareRingInto(p *PreparedRing, r Ring, pool []prepEdge) []prepEdge {
	p.bbox = EmptyBBox()
	p.interior = EmptyBBox()
	if !r.Valid() {
		return pool
	}
	p.bbox = r.BBox()

	// Horizontal edges can never satisfy the crossing condition
	// (ay > y) != (by > y); drop them at build time.
	n := len(r)
	if pool == nil {
		pool = make([]prepEdge, 0, n)
	}
	start := len(pool)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		a, b := r[j], r[i]
		if a.Y == b.Y { //fivealarms:allow(floateq) exact horizontal-edge drop; (ay > y) != (by > y) can never hold for these
			continue
		}
		pool = append(pool, prepEdge{ax: a.X, ay: a.Y, bx: b.X, by: b.Y})
	}
	p.edges = pool[start:len(pool):len(pool)]

	if len(p.edges) > smallRingEdges {
		p.buildBands()
	}
	p.interior = interiorBox(r, p.bbox)
	return pool
}

// edgeSpan returns the band range covered by edge i.
func (p *PreparedRing) edgeSpan(i int) (int32, int32) {
	e := &p.edges[i]
	lo, hi := e.ay, e.by
	if lo > hi {
		lo, hi = hi, lo
	}
	return p.bandOf(lo), p.bandOf(hi)
}

// buildBands buckets the edges into y bands (two-pass counting sort into
// a CSR layout, no per-band slice headers). The fill pass advances
// bandOff in place and restores it by a shift afterwards, so the only
// allocations are the two CSR arrays themselves.
func (p *PreparedRing) buildBands() {
	height := p.bbox.MaxY - p.bbox.MinY
	p.nBands = len(p.edges) / 2
	if p.nBands < 1 {
		p.nBands = 1
	}
	if p.nBands > maxBands {
		p.nBands = maxBands
	}
	if !(height > 0) {
		p.nBands = 1
	}
	if p.nBands > 1 {
		p.invBandH = float64(p.nBands) / height
		if !(p.invBandH > 0) || math.IsInf(p.invBandH, 1) {
			// Degenerate height: band arithmetic would overflow.
			p.nBands = 1
			p.invBandH = 0
		}
	}

	p.bandOff = make([]int32, p.nBands+1)
	for i := range p.edges {
		b0, b1 := p.edgeSpan(i)
		for b := b0; b <= b1; b++ {
			p.bandOff[b+1]++
		}
	}
	for b := 0; b < p.nBands; b++ {
		p.bandOff[b+1] += p.bandOff[b]
	}
	p.bandIdx = make([]int32, p.bandOff[p.nBands])
	for i := range p.edges {
		b0, b1 := p.edgeSpan(i)
		for b := b0; b <= b1; b++ {
			p.bandIdx[p.bandOff[b]] = int32(i)
			p.bandOff[b]++
		}
	}
	// Undo the cursor advance: bandOff[b] now holds the old bandOff[b+1].
	for b := p.nBands; b > 0; b-- {
		p.bandOff[b] = p.bandOff[b-1]
	}
	p.bandOff[0] = 0
}

// bandOf maps a y coordinate inside the bbox to its band index. The
// mapping is weakly monotone in y, so an edge assigned to bands
// [bandOf(yMin), bandOf(yMax)] is guaranteed to appear in the band of
// every query scanline its span can cross.
func (p *PreparedRing) bandOf(y float64) int32 {
	if p.nBands == 1 {
		return 0
	}
	b := int32((y - p.bbox.MinY) * p.invBandH)
	if b < 0 {
		return 0
	}
	if b >= int32(p.nBands) {
		return int32(p.nBands) - 1
	}
	return b
}

// Contains reports whether pt lies strictly inside the ring, with the
// same even-odd semantics as Ring.ContainsPoint.
func (p *PreparedRing) Contains(pt Point) bool {
	if pt.X < p.bbox.MinX || pt.X > p.bbox.MaxX || pt.Y < p.bbox.MinY || pt.Y > p.bbox.MaxY {
		return false
	}
	if pt.X > p.interior.MinX && pt.X < p.interior.MaxX && pt.Y > p.interior.MinY && pt.Y < p.interior.MaxY {
		return true
	}
	inside := false
	if p.bandIdx == nil {
		// Small ring: no index, scan every edge.
		for i := range p.edges {
			if p.edges[i].crosses(pt.X, pt.Y) {
				inside = !inside
			}
		}
		return inside
	}
	b := p.bandOf(pt.Y)
	for _, ei := range p.bandIdx[p.bandOff[b]:p.bandOff[b+1]] {
		if p.edges[ei].crosses(pt.X, pt.Y) {
			inside = !inside
		}
	}
	return inside
}

// interiorBox searches for an axis-aligned box that lies entirely inside
// the ring: its center is contained and no boundary edge intersects it.
// Points inside the box are then accepted without any edge tests. The
// search tries a few shrinking candidates around the centroid and bbox
// center; failure returns an empty box (fast-accept disabled), never an
// unsound one.
func interiorBox(r Ring, bbox BBox) BBox {
	if bbox.IsEmpty() {
		return EmptyBBox()
	}
	centers := [2]Point{r.Centroid(), bbox.Center()}
	for _, scale := range [...]float64{0.35, 0.2, 0.1, 0.05} {
		hw := bbox.Width() * scale
		hh := bbox.Height() * scale
		if hw <= 0 || hh <= 0 {
			break
		}
		for _, c := range centers {
			box := BBox{MinX: c.X - hw, MinY: c.Y - hh, MaxX: c.X + hw, MaxY: c.Y + hh}
			if !r.ContainsPoint(c) {
				continue
			}
			clear := true
			n := len(r)
			for i, j := 0, n-1; i < n; j, i = i, i+1 {
				if segmentIntersectsBBox(r[j], r[i], box) {
					clear = false
					break
				}
			}
			if clear {
				return box
			}
		}
	}
	return EmptyBBox()
}

// segmentIntersectsBBox reports whether segment ab intersects box
// (Liang-Barsky parametric clipping).
func segmentIntersectsBBox(a, b Point, box BBox) bool {
	if box.ContainsPoint(a) || box.ContainsPoint(b) {
		return true
	}
	dx := b.X - a.X
	dy := b.Y - a.Y
	t0, t1 := 0.0, 1.0
	// clip narrows [t0, t1] to the feasible range of p*t <= q.
	clip := func(p, q float64) bool {
		if p == 0 { //fivealarms:allow(floateq) Liang-Barsky axis-parallel case; guards the division by p
			return q >= 0
		}
		t := q / p
		if p < 0 {
			if t > t1 {
				return false
			}
			if t > t0 {
				t0 = t
			}
		} else {
			if t < t0 {
				return false
			}
			if t < t1 {
				t1 = t
			}
		}
		return true
	}
	if clip(-dx, a.X-box.MinX) && clip(dx, box.MaxX-a.X) &&
		clip(-dy, a.Y-box.MinY) && clip(dy, box.MaxY-a.Y) {
		return t0 <= t1
	}
	return false
}

// PreparedPolygon is a Polygon preprocessed for fast containment: a
// prepared exterior, prepared holes, and an interior box known to avoid
// every hole. Rings are embedded by value, so preparing a polygon costs
// one allocation per ring (its edge array) plus at most a holes slice.
type PreparedPolygon struct {
	exterior PreparedRing
	holes    []PreparedRing
	// interior fast-accepts points without consulting the holes; it is
	// the exterior's interior box when no hole's bbox touches it, empty
	// otherwise.
	interior BBox
}

// PreparePolygon builds the prepared form of pg.
func PreparePolygon(pg Polygon) *PreparedPolygon {
	p := &PreparedPolygon{}
	preparePolygonInto(p, pg, nil)
	return p
}

// preparePolygonInto fills p in place (see prepareRingInto).
func preparePolygonInto(p *PreparedPolygon, pg Polygon, pool []prepEdge) []prepEdge {
	pool = prepareRingInto(&p.exterior, pg.Exterior, pool)
	p.interior = p.exterior.interior
	if len(pg.Holes) > 0 {
		p.holes = make([]PreparedRing, len(pg.Holes))
		for i, h := range pg.Holes {
			pool = prepareRingInto(&p.holes[i], h, pool)
			if !p.interior.IsEmpty() && p.interior.Intersects(p.holes[i].bbox) {
				p.interior = EmptyBBox()
			}
		}
	}
	return pool
}

// Contains reports whether pt lies inside the polygon (inside the
// exterior, outside every hole), matching Polygon.ContainsPoint.
func (p *PreparedPolygon) Contains(pt Point) bool {
	if pt.X > p.interior.MinX && pt.X < p.interior.MaxX && pt.Y > p.interior.MinY && pt.Y < p.interior.MaxY {
		return true
	}
	if !p.exterior.Contains(pt) {
		return false
	}
	for i := range p.holes {
		if p.holes[i].Contains(pt) {
			return false
		}
	}
	return true
}

// PreparedMultiPolygon is a MultiPolygon preprocessed for fast
// containment, the form wildfire perimeters are queried in. Members are
// embedded by value: a perimeter of k single-ring polygons prepares with
// k+2 allocations total.
type PreparedMultiPolygon struct {
	bbox  BBox
	polys []PreparedPolygon
}

// PrepareMultiPolygon builds the prepared form of m.
func PrepareMultiPolygon(m MultiPolygon) *PreparedMultiPolygon {
	p := &PreparedMultiPolygon{bbox: m.BBox(), polys: make([]PreparedPolygon, len(m))}
	total := 0
	for i := range m {
		total += countEdges(m[i].Exterior)
		for _, h := range m[i].Holes {
			total += countEdges(h)
		}
	}
	pool := make([]prepEdge, 0, total)
	for i := range m {
		pool = preparePolygonInto(&p.polys[i], m[i], pool)
	}
	return p
}

// BBox returns the bounding box of all member polygons (identical to
// MultiPolygon.BBox of the source geometry).
func (p *PreparedMultiPolygon) BBox() BBox { return p.bbox }

// Contains reports whether pt lies inside any member polygon, matching
// MultiPolygon.ContainsPoint.
func (p *PreparedMultiPolygon) Contains(pt Point) bool {
	if p.bbox.IsEmpty() || pt.X < p.bbox.MinX || pt.X > p.bbox.MaxX || pt.Y < p.bbox.MinY || pt.Y > p.bbox.MaxY {
		return false
	}
	for i := range p.polys {
		if p.polys[i].Contains(pt) {
			return true
		}
	}
	return false
}
