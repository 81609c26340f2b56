package raster

import (
	"slices"

	"fivealarms/internal/geom"
)

// FillPolygonsInto sets every cell of mask whose center lies inside any
// of the polygons (even-odd rule per polygon, union across polygons),
// leaving already-set cells set. This is the fused multi-layer sweep:
// one banded pass over the grid rasterizes the whole collection, so a
// season's fire perimeters cost one traversal instead of one per fire.
// Bands are runs of whole-word row groups (rowBands), and each band
// scanline-fills every polygon whose row span meets it straight into
// its own words of mask, so the result is bit-identical at any
// GOMAXPROCS.
func FillPolygonsInto(mask *BitGrid, polys []geom.Polygon) {
	g := mask.Geometry
	if len(polys) == 0 || g.Cells() == 0 {
		return
	}
	// rows[2i], rows[2i+1] is polygon i's inclusive row range; hi < lo
	// means off-grid.
	rows := make([]int, 2*len(polys))
	for i := range polys {
		rows[2*i], rows[2*i+1] = 1, 0
		bb := polys[i].BBox().Intersection(g.Bounds())
		if bb.IsEmpty() {
			continue
		}
		cy0 := int((bb.MinY - g.MinY) / g.CellSize)
		cy1 := int((bb.MaxY - g.MinY) / g.CellSize)
		if cy0 < 0 {
			cy0 = 0
		}
		if cy1 >= g.NY {
			cy1 = g.NY - 1
		}
		rows[2*i], rows[2*i+1] = cy0, cy1
	}
	rowBands(g, func(lo, hi int) {
		var xs []float64
		for pi := range polys {
			rLo, rHi := max(rows[2*pi], lo), min(rows[2*pi+1], hi-1)
			p := &polys[pi]
			for cy := rLo; cy <= rHi; cy++ {
				y := g.RowY(cy)
				xs = xs[:0]
				// Even-odd crossings of this polygon's rings with the
				// row's center line: exterior first, then holes.
				for ri := -1; ri < len(p.Holes); ri++ {
					ring := p.Exterior
					if ri >= 0 {
						ring = p.Holes[ri]
					}
					n := len(ring)
					for i := 0; i < n; i++ {
						a := ring[i]
						b := ring[(i+1)%n]
						if (a.Y > y) == (b.Y > y) {
							continue
						}
						xs = append(xs, a.X+(b.X-a.X)*(y-a.Y)/(b.Y-a.Y))
					}
				}
				if len(xs) < 2 {
					continue
				}
				slices.Sort(xs)
				for i := 0; i+1 < len(xs); i += 2 {
					fillSpan(mask, cy, xs[i], xs[i+1])
				}
			}
		}
	})
}

// fillSpan sets the cells of row cy whose centers lie in [x0, x1].
func fillSpan(mask *BitGrid, cy int, x0, x1 float64) {
	g := mask.Geometry
	cx0 := int((x0 - g.MinX) / g.CellSize)
	cx1 := int((x1 - g.MinX) / g.CellSize)
	if cx0 < 0 {
		cx0 = 0
	}
	if cx1 >= g.NX {
		cx1 = g.NX - 1
	}
	// Trim each end with the exact center-in-interval tests the per-cell
	// loop applied. Cell centers are monotone in cx, so the passing cells
	// form the contiguous range that survives trimming, and the word
	// store sets precisely the cells the per-cell path set. The negated
	// comparisons also reproduce its NaN behavior (no cells set).
	for cx0 <= cx1 && !(g.ColX(cx0) >= x0) {
		cx0++
	}
	for cx1 >= cx0 && !(g.ColX(cx1) <= x1) {
		cx1--
	}
	mask.SetSpan(cy, cx0, cx1)
}

// FillPolygon sets every cell of the returned mask whose center lies inside
// the polygon (even-odd rule over all rings), clipped to the geometry.
func FillPolygon(g Geometry, poly geom.Polygon) *BitGrid {
	mask := NewBitGrid(g)
	FillPolygonsInto(mask, []geom.Polygon{poly})
	return mask
}
