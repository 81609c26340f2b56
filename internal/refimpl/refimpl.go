// Package refimpl holds deliberately naive reference implementations of
// every load-bearing GIS primitive in the fivealarms kernel: even-odd
// ray-casting containment (the twin of geom.Ring / Polygon /
// MultiPolygon ContainsPoint, the perimeter answer every fire join
// reproduces), per-cell polygon rasterization (the twin of
// raster.FillPolygonsInto), a direct Snyder-formula Albers projection
// (the twin of proj.Albers), brute-force Euclidean distance transforms
// and buffers (the twin of raster.DistanceTransform / DilateByDistance),
// exhaustive point range/radius scans (the twin of grid.Index), a full
// weighted-nearest-seed scan (the twin of
// geom.WeightedVoronoiCandidates), and an edge-map contour tracer (the
// twin of raster.TraceContours).
//
// Nothing here is fast and nothing here is clever — that is the point.
// Each function is written to be obviously correct from its definition,
// with no index, no scratch reuse, no algebraic rewrites, so the
// optimized kernel can be differentially tested against it forever (see
// the sibling package refimpl/diffcheck and DESIGN.md §5, "Testing
// conventions": no optimized primitive ships without a refimpl twin).
//
// Equivalence contract. Boolean answers (containment, mask bits, query
// membership) must be bit-identical to the optimized kernel except for
// probe points within floating-point noise of a non-axis-aligned
// boundary edge, where the repo-wide boundary carve-out applies (both
// implementations document boundary behavior as unspecified there; on
// the rectilinear perimeters the fire tracer emits, all edges are
// axis-aligned and the exemption never triggers). Float answers
// (distances, projected coordinates) must agree to <= 1 ulp.
package refimpl

import "fivealarms/internal/geom"

// RingContains is the textbook even-odd ray cast: count the crossings of
// the horizontal ray from p to +inf against every non-horizontal edge,
// odd means inside. The crossing abscissa is anchored at the edge's
// first vertex — deliberately the opposite anchoring from
// geom.Ring.ContainsPoint, so the two divisions are independent
// derivations that can only agree because the math agrees.
// Rings with fewer than three vertices contain nothing.
func RingContains(r geom.Ring, p geom.Point) bool {
	if len(r) < 3 {
		return false
	}
	inside := false
	n := len(r)
	for i := 0; i < n; i++ {
		a := r[i]
		b := r[(i+1)%n]
		if (a.Y > p.Y) == (b.Y > p.Y) {
			continue // edge entirely above or below the scanline (or horizontal)
		}
		xCross := a.X + (b.X-a.X)*(p.Y-a.Y)/(b.Y-a.Y)
		if p.X < xCross {
			inside = !inside
		}
	}
	return inside
}

// PolygonContains reports containment in the exterior ring and in none of
// the hole rings — the semantics of geom.Polygon.ContainsPoint.
func PolygonContains(pg geom.Polygon, p geom.Point) bool {
	if !RingContains(pg.Exterior, p) {
		return false
	}
	for _, h := range pg.Holes {
		if RingContains(h, p) {
			return false
		}
	}
	return true
}

// MultiPolygonContains reports containment in any member polygon — the
// semantics of geom.MultiPolygon.ContainsPoint.
func MultiPolygonContains(m geom.MultiPolygon, p geom.Point) bool {
	for _, pg := range m {
		if PolygonContains(pg, p) {
			return true
		}
	}
	return false
}

// RingsContainEvenOdd applies the even-odd rule over the union of all
// rings at once (exterior and holes contribute crossings alike). This is
// the semantics of the scanline rasterizer (raster.FillPolygon documents
// "even-odd rule over all rings"), which coincides with PolygonContains
// on well-formed polygons but not on pathological ones, so the fill twin
// must use this form.
func RingsContainEvenOdd(rings []geom.Ring, p geom.Point) bool {
	inside := false
	for _, r := range rings {
		n := len(r)
		for i := 0; i < n; i++ {
			a := r[i]
			b := r[(i+1)%n]
			if (a.Y > p.Y) == (b.Y > p.Y) {
				continue
			}
			xCross := a.X + (b.X-a.X)*(p.Y-a.Y)/(b.Y-a.Y)
			if p.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}
