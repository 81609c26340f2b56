package refimpl

import (
	"math"
	"sort"

	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
)

// TraceContours is the edge-map twin of raster.TraceContours. Every set
// cell, visited row-major, contributes each of its sides (bottom, right,
// top, left) that borders an unset cell as a directed edge with the cell
// on its left, keyed by its start corner in a map; loops are traced from
// the sorted start corners, taking the left turn at checkerboard
// corners, and collinear vertices are dropped. Counter-clockwise loops
// are exteriors; each clockwise loop is a hole of the smallest exterior,
// by area, that contains the centre of an unset cell just inside the
// hole (see insideHole).
func TraceContours(mask *raster.BitGrid) geom.MultiPolygon {
	g := mask.Geometry
	w := g.NX + 1 // vertex (vx, vy) has id vy*w + vx

	out := map[int][]int{}
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			if !mask.Get(cx, cy) {
				continue
			}
			sw := cy*w + cx
			se, nw := sw+1, sw+w
			ne := nw + 1
			if !mask.Get(cx, cy-1) {
				out[sw] = append(out[sw], se)
			}
			if !mask.Get(cx+1, cy) {
				out[se] = append(out[se], ne)
			}
			if !mask.Get(cx, cy+1) {
				out[ne] = append(out[ne], nw)
			}
			if !mask.Get(cx-1, cy) {
				out[nw] = append(out[nw], sw)
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	starts := make([]int, 0, len(out))
	for v := range out {
		starts = append(starts, v)
	}
	sort.Ints(starts)

	// leftOf maps a step between vertex ids to the step a left turn takes.
	leftOf := map[int]int{1: w, w: -1, -1: -w, -w: 1}
	var outers, holes []geom.Ring
	for _, start := range starts {
		// Every corner has as many edges in as out, so a loop entering a
		// corner can always leave it, and it closes back at start.
		for len(out[start]) > 0 {
			var ring geom.Ring
			for cur, step := start, 0; ; {
				pick := 0
				if len(out[cur]) == 2 && step != 0 && out[cur][1]-cur == leftOf[step] {
					pick = 1
				}
				next := out[cur][pick]
				out[cur] = append(out[cur][:pick:pick], out[cur][pick+1:]...)
				ring = append(ring, geom.Point{
					X: g.MinX + float64(cur%w)*g.CellSize,
					Y: g.MinY + float64(cur/w)*g.CellSize,
				})
				step, cur = next-cur, next
				if cur == start {
					break
				}
			}
			if ring = dropCollinear(ring); ring.SignedArea() > 0 {
				outers = append(outers, ring)
			} else {
				holes = append(holes, ring)
			}
		}
	}

	polys := make(geom.MultiPolygon, len(outers))
	for i, o := range outers {
		polys[i] = geom.Polygon{Exterior: o}
	}
	for _, h := range holes {
		probe := insideHole(g, h)
		best := -1
		for i, o := range outers {
			if RingContains(o, probe) && (best == -1 || o.Area() < outers[best].Area()) {
				best = i
			}
		}
		if best >= 0 {
			polys[best].Holes = append(polys[best].Holes, h)
		}
	}
	return polys
}

// insideHole returns the centre of the cell north-east of the hole's
// lowest, then leftmost, corner. The ring turns there between edges
// running east and north, so that cell lies inside the ring; a hole has
// set cells on its left and unset cells on its right, so the cell is
// unset and outside any island the hole surrounds.
func insideHole(g raster.Geometry, h geom.Ring) geom.Point {
	bx, by := math.MaxInt, math.MaxInt
	for _, p := range h {
		vx := int(math.Round((p.X - g.MinX) / g.CellSize))
		vy := int(math.Round((p.Y - g.MinY) / g.CellSize))
		if vy < by || vy == by && vx < bx {
			bx, by = vx, vy
		}
	}
	return g.Center(bx, by)
}

// dropCollinear keeps the vertices of a closed ring where the boundary
// turns: those whose incoming and outgoing edges have a nonzero cross
// product.
func dropCollinear(r geom.Ring) geom.Ring {
	var kept geom.Ring
	n := len(r)
	for i, cur := range r {
		in := cur.Sub(r[(i+n-1)%n])
		out := r[(i+1)%n].Sub(cur)
		if in.Cross(out) != 0 {
			kept = append(kept, cur)
		}
	}
	return kept
}
