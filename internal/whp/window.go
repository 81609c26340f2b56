package whp

import (
	"fivealarms/internal/conus"
	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
)

// windowAround returns a raster geometry of the given cell size covering a
// square window of halfWidth meters around a projected center point,
// clipped to the world's grid bounds.
func windowAround(w *conus.World, center geom.Point, halfWidth, cellSize float64) raster.Geometry {
	box := geom.BBox{
		MinX: center.X - halfWidth, MinY: center.Y - halfWidth,
		MaxX: center.X + halfWidth, MaxY: center.Y + halfWidth,
	}.Intersection(w.Grid.Bounds())
	return raster.NewGeometry(box, cellSize)
}

// WindowAround returns a raster geometry of the given cell size covering a
// square window of halfWidth meters around a geographic (lon/lat) anchor,
// clipped to the world grid. Use it to build fine-resolution WHP windows
// for the Figure 13 metro maps.
func WindowAround(w *conus.World, anchor geom.Point, halfWidth, cellSize float64) raster.Geometry {
	return windowAround(w, w.ToXY(anchor), halfWidth, cellSize)
}
