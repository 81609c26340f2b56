package refimpl

import (
	"math"

	"fivealarms/internal/geom"
)

// RangeQuery is the brute-force twin of grid.Index.Query: the indices of
// every point inside box (inclusive boundaries), in input order.
func RangeQuery(pts []geom.Point, box geom.BBox) []int {
	var out []int
	for i, p := range pts {
		if box.ContainsPoint(p) {
			out = append(out, i)
		}
	}
	return out
}

// RadiusQuery is the brute-force twin of grid.Index.QueryRadius: the
// indices of every point within planar distance r of center, using the
// same squared comparison (d·d <= r²) so the inclusion boundary is
// bit-identical. A negative radius matches nothing.
func RadiusQuery(pts []geom.Point, center geom.Point, r float64) []int {
	var out []int
	if r < 0 {
		return out
	}
	r2 := r * r
	for i, p := range pts {
		dx := p.X - center.X
		dy := p.Y - center.Y
		if dx*dx+dy*dy <= r2 {
			out = append(out, i)
		}
	}
	return out
}

// WeightedNearest is the brute-force twin of the pruning in
// geom.WeightedVoronoiCandidates: the index of the seed nearest to p
// under the multiplicatively weighted distance |p - seeds[i]| /
// weights[i], with |p - s| = sqrt(dx² + dy²), over a full scan in which
// the first minimum wins. -1 when no seed is at a distance below +Inf.
func WeightedNearest(p geom.Point, seeds []geom.Point, weights []float64) int {
	best := -1
	bestD := math.Inf(1)
	for i, s := range seeds {
		dx := p.X - s.X
		dy := p.Y - s.Y
		if d := math.Sqrt(dx*dx+dy*dy) / weights[i]; d < bestD {
			best = i
			bestD = d
		}
	}
	return best
}
