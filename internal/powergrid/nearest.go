package powergrid

import (
	"math"

	"fivealarms/internal/geom"
)

// nearestIndex answers nearest-center queries over a fixed set of
// finite centers with a uniform bucket grid, searched in square rings
// outward from the query's bucket. It returns what an ascending scan
// over the centers with a strict < returns: the lowest index among the
// centers at the minimum q.DistanceTo(center).
type nearestIndex struct {
	pts    []geom.Point
	x0, y0 float64 // the centers' minimum corner
	cell   float64 // bucket side
	nx, ny int
	// Bucket b = by*nx+bx holds items[start[b]:start[b+1]], ascending.
	start []int32
	items []int32
	// slack is an absolute margin on the stopping test. Bucketing by
	// floor((x-x0)/cell) can misplace a center by an ulp at a bucket
	// edge; the margin dwarfs that and costs at most one more ring.
	slack float64
}

// newNearestIndex buckets pts at about one center per bucket.
func newNearestIndex(pts []geom.Point) *nearestIndex {
	ix := &nearestIndex{pts: pts, cell: 1, nx: 1, ny: 1}
	if len(pts) > 0 {
		minX, minY, maxX, maxY := pts[0].X, pts[0].Y, pts[0].X, pts[0].Y
		for _, p := range pts[1:] {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
		w, h, n := maxX-minX, maxY-minY, float64(len(pts))
		cell := math.Sqrt(w * h / n)
		if !(cell > 0) { // collinear along an axis
			cell = math.Max(w, h) / n
		}
		if !(cell > 0) { // every center at one point
			cell = 1
		}
		for (math.Floor(w/cell)+1)*(math.Floor(h/cell)+1) > 4*n+16 {
			cell *= 2 // a long thin box: keep the grid O(n)
		}
		ix.x0, ix.y0, ix.cell = minX, minY, cell
		ix.nx, ix.ny = int(w/cell)+1, int(h/cell)+1
		ix.slack = 1e-9 * (math.Abs(minX) + math.Abs(minY) + w + h + cell)
	}
	ix.start = make([]int32, ix.nx*ix.ny+1)
	bucket := make([]int32, len(pts))
	for i, p := range pts {
		bx, by := ix.cellOf(p)
		bucket[i] = int32(by*ix.nx + bx)
		ix.start[bucket[i]+1]++
	}
	for b := 1; b < len(ix.start); b++ {
		ix.start[b] += ix.start[b-1]
	}
	ix.items = make([]int32, len(pts))
	next := append([]int32(nil), ix.start[:len(ix.start)-1]...)
	for i, b := range bucket {
		ix.items[next[b]] = int32(i)
		next[b]++
	}
	return ix
}

// cellOf returns the bucket of p, clamped onto the grid.
func (ix *nearestIndex) cellOf(p geom.Point) (int, int) {
	return clampBucket((p.X-ix.x0)/ix.cell, ix.nx), clampBucket((p.Y-ix.y0)/ix.cell, ix.ny)
}

// clampBucket floors f onto [0, n).
func clampBucket(f float64, n int) int {
	switch {
	case !(f >= 0): // below the grid, or NaN
		return 0
	case f >= float64(n-1):
		return n - 1
	}
	return int(f)
}

// nearest returns the index of the center nearest q, ties to the lowest
// index, or 0 when no center is at a finite distance (or there are no
// centers), as the ascending scan leaves its initial index.
func (ix *nearestIndex) nearest(q geom.Point) int {
	best, bestD := -1, math.Inf(1)
	scan := func(bx, by int) {
		b := by*ix.nx + bx
		for _, j := range ix.items[ix.start[b]:ix.start[b+1]] {
			if d := q.DistanceTo(ix.pts[j]); d < bestD || (d == bestD && int(j) < best) {
				best, bestD = int(j), d
			}
		}
	}
	cx, cy := ix.cellOf(q)
	for r := 0; ; r++ {
		x0, x1, y0, y1 := cx-r, cx+r, cy-r, cy+r
		for by := max(y0, 0); by <= min(y1, ix.ny-1); by++ {
			if by == y0 || by == y1 {
				for bx := max(x0, 0); bx <= min(x1, ix.nx-1); bx++ {
					scan(bx, by)
				}
				continue
			}
			if x0 >= 0 {
				scan(x0, by)
			}
			if x1 < ix.nx {
				scan(x1, by)
			}
		}
		// Every unsearched bucket lies beyond one side of the searched
		// block, so its centers are at least that side's gap from q.
		// A query clamped from outside the grid only has sides ahead
		// of it; a NaN gap never stops the search.
		more, gap := false, math.Inf(1)
		if x0 > 0 {
			more, gap = true, math.Min(gap, q.X-(ix.x0+float64(x0)*ix.cell))
		}
		if x1 < ix.nx-1 {
			more, gap = true, math.Min(gap, ix.x0+float64(x1+1)*ix.cell-q.X)
		}
		if y0 > 0 {
			more, gap = true, math.Min(gap, q.Y-(ix.y0+float64(y0)*ix.cell))
		}
		if y1 < ix.ny-1 {
			more, gap = true, math.Min(gap, ix.y0+float64(y1+1)*ix.cell-q.Y)
		}
		if !more || gap > bestD*(1+1e-9)+ix.slack {
			break
		}
	}
	if best < 0 {
		return 0
	}
	return best
}
