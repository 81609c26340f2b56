package cli

import (
	"fmt"
	"image/color"

	"fivealarms"
	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
	"fivealarms/internal/whp"
	"fivealarms/internal/wui"
)

// TxMarker is the class code map layers use to draw transceiver positions
// over a WHP base layer.
const TxMarker = 9

// MapOptions parameterizes BuildMapLayer.
type MapOptions struct {
	// Lon/Lat/KM/WindowCell configure the metro window layer.
	Lon, Lat, KM, WindowCell float64
}

// MapLayers lists the renderable layer names.
var MapLayers = []string{"whp", "extended", "wui", "density", "fires2019", "history", "metro"}

// BuildMapLayer produces a class grid plus palette for the requested map
// layer (the whpmap command's engine).
func BuildMapLayer(study *fivealarms.Study, layer string, opt MapOptions) (*raster.ClassGrid, raster.Palette, error) {
	switch layer {
	case "whp":
		return study.WHP.Classes, MarkedPalette(), nil
	case "extended":
		dist := 804.67
		if c := study.World.Grid.CellSize; dist < c {
			dist = c
		}
		return study.Analyzer.ExtendedClasses(dist), MarkedPalette(), nil
	case "wui":
		m := wui.Build(study.World, study.Analyzer.Population(), study.WHP)
		pal := raster.Palette{
			uint8(wui.NonWUI):    {R: 25, G: 25, B: 25, A: 255},
			uint8(wui.Interface): {R: 250, G: 160, B: 60, A: 255},
			uint8(wui.Intermix):  {R: 220, G: 60, B: 40, A: 255},
		}
		return m.Classes, pal, nil
	case "density":
		return densityLayer(study)
	case "fires2019", "history":
		var mask *raster.BitGrid
		if layer == "fires2019" {
			mask = study.Season2019UnionMask()
		} else {
			mask = study.HistoryUnionMask()
		}
		g := study.World.Grid
		out := raster.NewClassGrid(g)
		for cy := 0; cy < g.NY; cy++ {
			for cx := 0; cx < g.NX; cx++ {
				if mask.Get(cx, cy) {
					out.Set(cx, cy, uint8(whp.VeryHigh)) // burned renders red
				} else if study.World.Inside.Get(cx, cy) {
					out.Set(cx, cy, uint8(whp.VeryLow))
				}
			}
		}
		return out, MarkedPalette(), nil
	case "metro":
		return metroLayer(study, opt)
	}
	return nil, nil, fmt.Errorf("cli: unknown map layer %q", layer)
}

// densityLayer bins transceivers onto the world grid (Figure 2).
func densityLayer(study *fivealarms.Study) (*raster.ClassGrid, raster.Palette, error) {
	g := study.World.Grid
	out := raster.NewClassGrid(g)
	counts := raster.NewFloatGrid(g)
	for i := range study.Data.T {
		if cx, cy, ok := g.CellOf(study.Data.T[i].XY); ok {
			counts.Set(cx, cy, counts.At(cx, cy)+1)
		}
	}
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			switch n := counts.At(cx, cy); {
			case n == 0:
			case n < 3:
				out.Set(cx, cy, 1)
			case n < 20:
				out.Set(cx, cy, 2)
			default:
				out.Set(cx, cy, 3)
			}
		}
	}
	pal := raster.Palette{
		1: {R: 60, G: 60, B: 180, A: 255},
		2: {R: 80, G: 160, B: 255, A: 255},
		3: {R: 255, G: 255, B: 255, A: 255},
	}
	return out, pal, nil
}

// metroLayer renders a fine WHP window with at-risk transceivers drawn on
// top (Figure 13).
func metroLayer(study *fivealarms.Study, opt MapOptions) (*raster.ClassGrid, raster.Palette, error) {
	if opt.KM <= 0 {
		opt.KM = 150
	}
	if opt.WindowCell <= 0 {
		opt.WindowCell = 1000
	}
	anchor := geom.Point{X: opt.Lon, Y: opt.Lat}
	g := whp.WindowAround(study.World, anchor, opt.KM*1000, opt.WindowCell)
	fine := whp.Build(study.World, g, whp.FineConfig)
	out := fine.Classes.Clone()
	for _, ti := range study.Data.Index.Query(g.Bounds(), nil) {
		p := study.Data.T[ti].XY
		if fine.ClassAt(p).AtRisk() {
			if cx, cy, ok := g.CellOf(p); ok {
				out.Set(cx, cy, TxMarker)
			}
		}
	}
	return out, MarkedPalette(), nil
}

// MarkedPalette is the WHP palette plus the transceiver marker color.
func MarkedPalette() raster.Palette {
	pal := whp.Palette()
	pal[TxMarker] = color.RGBA{R: 255, G: 255, B: 255, A: 255}
	return pal
}
