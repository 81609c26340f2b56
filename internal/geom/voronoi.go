package geom

import "math"

// voronoiSlack is the relative margin by which a seed's best case must
// lose to the bound before WeightedVoronoiCandidates drops it. It is
// many orders of magnitude wider than the few ulps by which two ways of
// computing the same distance can differ.
const voronoiSlack = 1e-9

// WeightedVoronoiCandidates appends to dst, in input order, the index of
// every seed that can be the nearest seed of some point p of b under
// the multiplicatively weighted distance |p - seeds[i]| / weights[i],
// and returns the extended slice. For every p in b, a scan that keeps
// the first strict minimum of that distance picks the same seed from
// the candidates as from all the seeds, whether it measures |p - s|
// with math.Hypot or as math.Sqrt(dx*dx + dy*dy).
//
// The rule: bound is the least worst case, the minimum over i of
// b.MaxDistanceTo(seeds[i]) / weights[i]. Seed i is dropped when its
// best case, b.DistanceTo(seeds[i]) / weights[i], exceeds bound by more
// than the relative slack. At every point of b it then loses strictly
// to the seed that sets the bound, so it is never the first strict
// minimum. A seed whose weight is not positive is never dropped and
// never sets the bound. Coordinates and weights are assumed finite,
// with weighted distances in the normal float range; a NaN or infinite
// bound drops nothing.
func WeightedVoronoiCandidates(dst []int, b BBox, seeds []Point, weights []float64) []int {
	bound := math.Inf(1)
	for i, s := range seeds {
		if w := weights[i]; w > 0 {
			bound = math.Min(bound, b.MaxDistanceTo(s)/w)
		}
	}
	limit := bound * (1 + voronoiSlack)
	for i, s := range seeds {
		if w := weights[i]; w > 0 && b.DistanceTo(s)/w > limit {
			continue
		}
		dst = append(dst, i)
	}
	return dst
}
