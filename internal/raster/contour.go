package raster

import (
	"sync"

	"fivealarms/internal/geom"
)

// TraceContours extracts the boundary polygons of the set region of a
// binary mask. The result is a MultiPolygon in projected coordinates whose
// exterior rings wind counter-clockwise and whose holes wind clockwise,
// following the cell edges exactly (rectilinear rings, corners only).
// Diagonally touching cells are treated as disconnected (4-connectivity),
// which matches how fire perimeters are reported. Each 4-connected
// component of set cells is one polygon, in the order of the
// components' lowest, leftmost corners, and its holes are the loops
// traced around its unset pockets.
//
// This is how the wildfire simulator converts a burned-cell mask into a
// GeoMAC-style perimeter geometry.
func TraceContours(mask *BitGrid) geom.MultiPolygon {
	t, _ := tracers.Get().(*tracer)
	if t == nil {
		t = new(tracer)
	}
	mp := t.trace(mask)
	tracers.Put(t)
	return mp
}

// tracers holds the scratch of finished traces for the next one.
var tracers sync.Pool

// A tracer is the scratch of one trace. Its vertex table is all zero
// between traces: tracing consumes every edge the run pass records.
type tracer struct {
	// vert holds each grid vertex's outgoing boundary edges, vertex
	// (vx, vy) at vy*(NX+1) + vx. Every edge joins 4-neighbour vertices,
	// so an edge is stored as its direction, and a vertex starts at most
	// two edges (checkerboard corners start exactly two): a byte holds
	// the count in bits 0-1 and the directions, in insertion order, in
	// bits 2-3 and 4-5.
	vert []uint8
	runs []setRun
	// rowRun[cy] is the index of row cy's first run, in rows that have
	// runs.
	rowRun []int
	pts    []geom.Point // the corners of every loop traced, loop after loop
	loops  []traced
	next   []int // per polygon, the slot of its next hole
}

// setRun is a maximal run of set cells in row cy. parent links the runs
// of one 4-connected component to its first run in row-major order,
// the root, whose poly is the index of the component's polygon.
type setRun struct {
	cy, cx0, cx1 int
	parent, poly int32
}

// traced is one loop: its corners end at pts[end], and it bounds
// polygon poly, as the exterior or, if hole, as a hole.
type traced struct {
	end  int
	poly int32
	hole bool
}

func (t *tracer) trace(mask *BitGrid) geom.MultiPolygon {
	g := mask.Geometry
	vw := g.NX + 1
	if n := vw * (g.NY + 1); cap(t.vert) < n {
		t.vert = make([]uint8, n)
	}
	vert := t.vert
	addEdge := func(from int, dir uint8) {
		b := vert[from]
		vert[from] = (b + 1) | dir<<(2+2*(b&3))
	}

	// One pass over the set runs records the directed boundary edges
	// with the interior on the left:
	//   bottom edge -> +x, right edge -> +y, top edge -> -x, left edge -> -y,
	// so each vertex stores its edges in row-major cell order; joins each
	// run to the runs it touches in the row below; and bounds the set
	// cells, whose box's corners carry every edge. Within a run the
	// left/right neighbours are known, so only the vertical neighbours
	// need bit probes.
	if cap(t.rowRun) < g.NY {
		t.rowRun = make([]int, g.NY)
	}
	runs, rowRun := t.runs[:0], t.rowRun[:g.NY]
	bx0, bx1 := g.NX, -1
	below, row := 0, 0 // the runs of the row below start at below, this row's at row
	mask.ForEachSetRun(func(cy, cx0, cx1 int) {
		k := len(runs)
		if k == 0 || runs[k-1].cy != cy {
			below, row, rowRun[cy] = row, k, k
			if k > 0 && runs[k-1].cy != cy-1 {
				below = k
			}
		}
		runs = append(runs, setRun{cy: cy, cx0: cx0, cx1: cx1, parent: int32(k)})
		for below < row && runs[below].cx1 < cx0 {
			below++
		}
		for j := below; j < row && runs[j].cx0 <= cx1; j++ {
			union(runs, j, k)
		}
		bx0, bx1 = min(bx0, cx0), max(bx1, cx1)
		for cx := cx0; cx <= cx1; cx++ {
			v00 := cy*vw + cx        // the cell's SW corner
			if !mask.Get(cx, cy-1) { // bottom: left-to-right
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
	t.runs = runs
	if len(runs) == 0 {
		return nil
	}
	by0, by1 := runs[0].cy, runs[len(runs)-1].cy

	// Trace loops from each vertex in index order while it has edges
	// left, so every loop starts at its smallest vertex, the lowest then
	// leftmost, which it leaves east or north, and is a corner. Only
	// corners are kept: the vertices where the loop turns.
	step := [4]int{dirE: 1, dirN: vw, dirW: -1, dirS: -vw}
	pts, loops := t.pts[:0], t.loops[:0]
	var nPolys, nHoles int
	for vy := by0; vy <= by1+1; vy++ {
		for vx := bx0; vx <= bx1+1; vx++ {
			start := vy*vw + vx
			for vert[start] != 0 {
				first := vert[start] >> 2 & 3
				cur, dir := start, noDir
				x, y := vx, vy
				for {
					b := vert[cur]
					d, rest := b>>2&3, b>>4&3
					// Ambiguous (checkerboard) vertex: prefer the left
					// turn relative to the incoming direction so loops
					// never cross themselves.
					if b&3 == 2 && dir != noDir && rest == (dir+1)%4 {
						d, rest = rest, d
					}
					if b&3 == 2 {
						vert[cur] = 1 | rest<<2
					} else {
						vert[cur] = 0
					}
					if d != dir {
						pts = append(pts, geom.Point{X: g.MinX + float64(x)*g.CellSize, Y: g.MinY + float64(y)*g.CellSize})
					}
					dir = d
					cur += step[d]
					x += stepX[d]
					y += stepY[d]
					if cur == start {
						break
					}
				}
				// The left-turn rule keeps a loop around one 4-connected
				// component, the one holding the cell on the left of its
				// first edge. A loop leaving its start east winds
				// counter-clockwise: it is the component's exterior, and
				// it is traced before the component's holes, since it
				// starts at the component's lowest, leftmost corner. A
				// loop leaving north winds clockwise: a hole of the
				// component.
				l := traced{end: len(pts)}
				if first == dirE {
					runs[find(runs, runAt(runs, rowRun, vx, vy))].poly = int32(nPolys)
					l.poly = int32(nPolys)
					nPolys++
				} else {
					l.poly, l.hole = runs[find(runs, runAt(runs, rowRun, vx-1, vy))].poly, true
					nHoles++
				}
				loops = append(loops, l)
			}
		}
	}
	t.pts, t.loops = pts, loops

	// Copy every ring once, at its final length, into one backing array;
	// each polygon's holes take consecutive slots of another, in the
	// order they were traced: next[p] counts polygon p-1's holes, then
	// sums into the slot of polygon p's next hole.
	corners := make([]geom.Point, len(pts))
	copy(corners, pts)
	polys := make(geom.MultiPolygon, nPolys)
	holes := make([]geom.Ring, nHoles)
	if cap(t.next) < nPolys+1 {
		t.next = make([]int, nPolys+1)
	}
	next := t.next[:nPolys+1]
	clear(next)
	for _, l := range loops {
		if l.hole {
			next[l.poly+1]++
		}
	}
	for p := range polys {
		next[p+1] += next[p]
		if lo, hi := next[p], next[p+1]; hi > lo {
			polys[p].Holes = holes[lo:hi:hi]
		}
	}
	begin := 0
	for _, l := range loops {
		r := geom.Ring(corners[begin:l.end:l.end])
		begin = l.end
		if l.hole {
			holes[next[l.poly]] = r
			next[l.poly]++
		} else {
			polys[l.poly].Exterior = r
		}
	}
	return polys
}

// union joins the components of runs j and k, linking the later root
// under the earlier.
func union(runs []setRun, j, k int) {
	a, b := find(runs, j), find(runs, k)
	if a > b {
		a, b = b, a
	}
	runs[b].parent = a
}

// find returns the root of run k's component, halving the path to it.
func find(runs []setRun, k int) int32 {
	i := int32(k)
	for runs[i].parent != i {
		runs[i].parent = runs[runs[i].parent].parent
		i = runs[i].parent
	}
	return i
}

// runAt returns the index of the run holding set cell (cx, cy), where
// rowRun[cy] is the index of the row's first run.
func runAt(runs []setRun, rowRun []int, cx, cy int) int {
	k := rowRun[cy]
	for runs[k].cx1 < cx {
		k++
	}
	return k
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
