package refimpl

import (
	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
)

// FillMultiPolygon is the per-cell twin of raster.FillPolygonsInto into
// a fresh mask: every cell of the grid is tested individually —
// the cell center against the even-odd union of each polygon's rings —
// with no scanline, no span fill and no bbox clipping beyond skipping
// whole polygons that cannot touch the grid. A cell is set when any
// member polygon contains its center.
func FillMultiPolygon(g raster.Geometry, m geom.MultiPolygon) *raster.BitGrid {
	mask := raster.NewBitGrid(g)
	FillMultiPolygonInto(mask, m)
	return mask
}

// FillMultiPolygonInto sets into mask every cell whose center lies inside
// any member polygon, leaving already-set cells set (the union semantics
// of raster.FillPolygonsInto).
func FillMultiPolygonInto(mask *raster.BitGrid, m geom.MultiPolygon) {
	g := mask.Geometry
	for _, pg := range m {
		rings := make([]geom.Ring, 0, 1+len(pg.Holes))
		rings = append(rings, pg.Exterior)
		rings = append(rings, pg.Holes...)
		for cy := 0; cy < g.NY; cy++ {
			for cx := 0; cx < g.NX; cx++ {
				if mask.Get(cx, cy) {
					continue
				}
				if RingsContainEvenOdd(rings, g.Center(cx, cy)) {
					mask.Set(cx, cy, true)
				}
			}
		}
	}
}
