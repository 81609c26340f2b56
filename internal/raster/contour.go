package raster

import "fivealarms/internal/geom"

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

	// The set cells' bounding box; only its corners carry edges.
	bx0, by0, bx1, by1 := g.NX, g.NY, -1, -1
	mask.ForEachSetRun(func(cy, cx0, cx1 int) {
		bx0, bx1 = min(bx0, cx0), max(bx1, cx1)
		by0, by1 = min(by0, cy), cy
	})
	if bx1 < 0 {
		return nil
	}

	// Vertices are the box's cell corners, row-major from its SW corner,
	// so index order is the grid's vertex-id order. Every boundary edge
	// joins 4-neighbor vertices, so an edge is stored as its direction
	// from its start vertex, and a vertex starts at most two edges
	// (checkerboard corners start exactly two): each byte holds the
	// count in bits 0-1 and the directions, in insertion order, in bits
	// 2-3 and 4-5.
	vw := bx1 - bx0 + 2
	vert := make([]uint8, vw*(by1-by0+2))
	step := [4]int{dirE: 1, dirN: vw, dirW: -1, dirS: -vw}
	addEdge := func(from int, dir uint8) {
		b := vert[from]
		vert[from] = (b + 1) | dir<<(2+2*(b&3))
	}

	// Collect directed boundary edges with the interior on the left:
	//   bottom edge -> +x, right edge -> +y, top edge -> -x, left edge -> -y.
	// Cells are visited in row-major order, so each vertex stores its
	// edges in a fixed order. Within a maximal set run the left/right
	// neighbors are known implicitly, so only the vertical neighbors
	// need bit probes.
	mask.ForEachSetRun(func(cy, cx0, cx1 int) {
		for cx := cx0; cx <= cx1; cx++ {
			v00 := (cy-by0)*vw + cx - bx0 // the cell's SW corner
			if !mask.Get(cx, cy-1) {      // bottom: left-to-right
				addEdge(v00, dirE)
			}
			if cx == cx1 { // right: bottom-to-top
				addEdge(v00+1, dirN)
			}
			if !mask.Get(cx, cy+1) { // top: right-to-left
				addEdge(v00+1+vw, dirW)
			}
			if cx == cx0 { // left: top-to-bottom
				addEdge(v00+vw, dirS)
			}
		}
	})

	// Trace loops from each vertex in index order while it has edges
	// left, so every loop starts at its smallest vertex.
	var outers, holes []geom.Ring
	var outerArea []float64
	var raw geom.Ring
	for start := range vert {
		for vert[start]&3 != 0 {
			raw = raw[:0]
			cur, dir := start, noDir
			vx, vy := bx0+start%vw, by0+start/vw
			for {
				b := vert[cur]
				n := b & 3
				if n == 0 {
					break
				}
				d, rest := b>>2&3, b>>4&3
				// Ambiguous (checkerboard) vertex: prefer the left turn
				// relative to the incoming direction so loops never
				// cross themselves.
				if n == 2 && dir != noDir && rest == (dir+1)%4 {
					d, rest = rest, d
				}
				if n == 2 {
					vert[cur] = 1 | rest<<2
				} else {
					vert[cur] = 0
				}
				raw = append(raw, geom.Point{X: g.MinX + float64(vx)*g.CellSize, Y: g.MinY + float64(vy)*g.CellSize})
				dir = d
				cur += step[d]
				vx += stepX[d]
				vy += stepY[d]
				if cur == start {
					break
				}
			}
			if len(raw) < 4 {
				continue
			}
			r := compressCollinear(raw)
			if !r.Valid() {
				continue
			}
			if a := r.SignedArea(); a > 0 {
				outers = append(outers, r)
				outerArea = append(outerArea, a)
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
		probe := holeProbe(h, g.CellSize)
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
			if in && (bestIdx == -1 || outerArea[i] < outerArea[bestIdx]) {
				bestIdx = i
			}
		}
		if bestIdx >= 0 {
			polys[bestIdx].Holes = append(polys[bestIdx].Holes, h)
		}
	}
	return polys
}

// holeProbe returns the centre of the cell to the right of the first
// edge of hole h. Every loop starts at its smallest vertex, the lowest
// then leftmost, so a clockwise hole leaves h[0] northward and that cell
// is the one north-east of h[0]. Holes keep the set region on their
// left, so the cell is unset, inside the hole and inside no island
// nested in it (a point chosen from the hole's shape alone, such as its
// centroid, can land on one), and its centre is half a cell from every
// ring.
func holeProbe(h geom.Ring, cellSize float64) geom.Point {
	return geom.Point{X: h[0].X + cellSize/2, Y: h[0].Y + cellSize/2}
}

// Edge directions of the contour tracer; the left turn of d is (d+1)%4.
const (
	dirE uint8 = iota
	dirN
	dirW
	dirS
	noDir // before a loop's first edge
)

// stepX and stepY are the vertex offsets of each edge direction.
var (
	stepX = [4]int{dirE: 1, dirW: -1}
	stepY = [4]int{dirN: 1, dirS: -1}
)

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
