package raster

import (
	"sort"

	"fivealarms/internal/geom"
)

// TraceContours extracts the boundary polygons of the set region of a
// binary mask. The result is a MultiPolygon in projected coordinates whose
// exterior rings wind counter-clockwise and whose holes wind clockwise,
// following the cell edges exactly (rectilinear rings). Diagonally touching
// cells are treated as disconnected (4-connectivity), which matches how
// fire perimeters are reported.
//
// This is how the wildfire simulator converts a burned-cell mask into a
// GeoMAC-style perimeter geometry.
func TraceContours(mask *BitGrid) geom.MultiPolygon {
	g := mask.Geometry
	w := int32(g.NX + 1)

	// out[vertex] holds up to two outgoing edges (checkerboard corners have
	// exactly two).
	out := make(map[int32][2]int32)
	outN := make(map[int32]uint8)
	addEdge := func(from, to int32) {
		e := out[from]
		n := outN[from]
		if n < 2 {
			e[n] = to
			out[from] = e
			outN[from] = n + 1
		}
	}

	// Collect directed boundary edges with the interior on the left:
	//   bottom edge -> +x, right edge -> +y, top edge -> -x, left edge -> -y.
	// Vertices are grid corners addressed as vy*(NX+1)+vx. Cells are
	// visited in row-major order, the insertion order start-edge
	// selection depends on. Within a maximal set run the left/right
	// neighbors are known implicitly, so only the vertical neighbors
	// need bit probes.
	mask.ForEachSetRun(func(cy, cx0, cx1 int) {
		for cx := cx0; cx <= cx1; cx++ {
			v00 := int32(cy)*w + int32(cx) // the cell's SW corner
			if !mask.Get(cx, cy-1) {       // bottom: left-to-right
				addEdge(v00, v00+1)
			}
			if cx == cx1 { // right: bottom-to-top
				addEdge(v00+1, v00+1+w)
			}
			if !mask.Get(cx, cy+1) { // top: right-to-left
				addEdge(v00+1+w, v00+w)
			}
			if cx == cx0 { // left: top-to-bottom
				addEdge(v00+w, v00)
			}
		}
	})
	if len(out) == 0 {
		return nil
	}

	vertexPoint := func(v int32) geom.Point {
		vy := int(v / w)
		vx := int(v % w)
		return geom.Point{X: g.MinX + float64(vx)*g.CellSize, Y: g.MinY + float64(vy)*g.CellSize}
	}

	// Deterministic iteration: trace loops starting from the smallest
	// remaining vertex.
	starts := make([]int32, 0, len(out))
	for v := range out {
		starts = append(starts, v)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	takeEdge := func(from int32, incomingDir int32) (int32, bool) {
		n := outN[from]
		if n == 0 {
			return 0, false
		}
		e := out[from]
		pick := 0
		if n == 2 {
			// Ambiguous (checkerboard) vertex: prefer the left turn relative
			// to the incoming direction so loops never cross themselves.
			// Directions are encoded by the vertex delta: +1 (east), -1
			// (west), +w (north), -w (south). Left of east is north, etc.
			left := map[int32]int32{1: w, w: -1, -1: -w, -w: 1}[incomingDir]
			if e[1]-from == left {
				pick = 1
			}
		}
		to := e[pick]
		// Remove the picked edge.
		if pick == 0 {
			e[0] = e[1]
		}
		outN[from] = n - 1
		out[from] = e
		if n-1 == 0 {
			delete(out, from)
		}
		return to, true
	}

	var outers []geom.Ring
	var holes []geom.Ring
	for _, start := range starts {
		for outN[start] > 0 {
			var ring []geom.Point
			cur := start
			var dir int32
			for {
				next, ok := takeEdge(cur, dir)
				if !ok {
					break
				}
				ring = append(ring, vertexPoint(cur))
				dir = next - cur
				cur = next
				if cur == start {
					break
				}
			}
			if len(ring) < 4 {
				continue
			}
			r := compressCollinear(geom.Ring(ring))
			if !r.Valid() {
				continue
			}
			if r.IsCCW() {
				outers = append(outers, r)
			} else {
				holes = append(holes, r)
			}
		}
	}

	// Assign each hole to the smallest containing outer ring. Probes pay
	// a bbox reject first; large outer rings are prepared lazily on their
	// first surviving probe so the scan is banded, while small rings use
	// the naive walk directly (a linear scan is already optimal there and
	// preparation would only allocate).
	const prepareVertexThreshold = 48
	polys := make(geom.MultiPolygon, len(outers))
	for i, o := range outers {
		polys[i] = geom.Polygon{Exterior: o}
	}
	var prepared []*geom.PreparedRing
	var outerBB []geom.BBox
	if len(holes) > 0 {
		prepared = make([]*geom.PreparedRing, len(outers))
		outerBB = make([]geom.BBox, len(outers))
		for i, o := range outers {
			outerBB[i] = o.BBox()
		}
	}
	for _, h := range holes {
		bestIdx := -1
		bestArea := 0.0
		// Any hole vertex is also on the outer region boundary lattice, so
		// probe containment with the hole's centroid instead.
		probe := h.Centroid()
		for i := range outers {
			if !outerBB[i].ContainsPoint(probe) {
				continue
			}
			in := false
			if len(outers[i]) >= prepareVertexThreshold {
				if prepared[i] == nil {
					prepared[i] = geom.PrepareRing(outers[i])
				}
				in = prepared[i].Contains(probe)
			} else {
				in = outers[i].ContainsPoint(probe)
			}
			if in {
				a := outers[i].Area()
				if bestIdx == -1 || a < bestArea {
					bestIdx = i
					bestArea = a
				}
			}
		}
		if bestIdx >= 0 {
			polys[bestIdx].Holes = append(polys[bestIdx].Holes, h)
		}
	}
	return polys
}

// compressCollinear removes intermediate vertices along straight runs of a
// rectilinear ring.
func compressCollinear(r geom.Ring) geom.Ring {
	n := len(r)
	if n < 3 {
		return r
	}
	out := make(geom.Ring, 0, n)
	for i := 0; i < n; i++ {
		prev := r[(i+n-1)%n]
		cur := r[i]
		next := r[(i+1)%n]
		v1 := cur.Sub(prev)
		v2 := next.Sub(cur)
		if v1.Cross(v2) != 0 { //fivealarms:allow(floateq) exact collinearity test; marching-squares vertices are grid-exact
			out = append(out, cur)
		}
	}
	return out
}
