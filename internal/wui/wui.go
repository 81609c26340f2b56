// Package wui maps the Wildland-Urban Interface following the scheme of
// Radeloff et al. (2018), the paper's reference [29]: populated places
// meet wildland vegetation either by intermixing with it ("intermix WUI")
// or by abutting a large vegetated area ("interface WUI"). The paper's
// §3.7 key finding — wildfire impact on cell infrastructure concentrates
// along city edges in the WUI — is quantified over this layer.
//
// The synthetic analog substitutes the population surface for census
// housing density and the continuous hazard field for vegetation cover;
// thresholds follow the Radeloff methodology's structure (a density
// minimum, a vegetation minimum, a proximity buffer to large wildland
// patches).
package wui

import (
	"fivealarms/internal/conus"
	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
	"fivealarms/internal/whp"
)

// Class is the WUI category of a cell.
type Class uint8

// WUI classes.
const (
	NonWUI Class = iota
	Interface
	Intermix
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case NonWUI:
		return "non-wui"
	case Interface:
		return "interface"
	case Intermix:
		return "intermix"
	default:
		return "invalid"
	}
}

// IsWUI reports whether the class is interface or intermix.
func (c Class) IsWUI() bool { return c == Interface || c == Intermix }

// The mapping's thresholds, in the roles of the Radeloff methodology's.
const (
	// minDensityPerKM2 is the minimum population density of a WUI cell
	// (Radeloff: 6.17 housing units/km2 ~ 15 people/km2).
	minDensityPerKM2 = 15
	// vegHazard is the hazard level treated as wildland vegetation.
	vegHazard = 0.10
	// minPatchKM2 is the minimum area of a wildland patch that creates
	// interface WUI around it (Radeloff: 5 km2).
	minPatchKM2 = 5
	// interfaceDistM is the buffer distance around large patches
	// (Radeloff: 2.4 km).
	interfaceDistM = 2400
)

// interfaceDist returns the interface buffer on a raster of the given
// cell size: interfaceDistM, floored at one cell so coarse rasters
// still produce interface cells.
func interfaceDist(cell float64) float64 {
	if cell > interfaceDistM {
		return cell
	}
	return interfaceDistM
}

// Map is the realized WUI layer.
type Map struct {
	Classes *raster.ClassGrid
	// Pop is the population surface used for density.
	Pop *raster.FloatGrid
}

// Build computes the WUI over the world grid from the population surface
// pop (coverage.BuildPopulation's output for w), which the Map keeps and
// only reads.
func Build(w *conus.World, pop *raster.FloatGrid, hazard *whp.Map) *Map {
	g := w.Grid

	// Wildland vegetation mask and its large patches.
	veg := raster.NewBitGrid(g)
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			if hazard.Hazard.At(cx, cy) >= vegHazard {
				veg.Set(cx, cy, true)
			}
		}
	}
	labels := raster.LabelComponents(veg)
	cellKM2 := g.CellArea() / 1e6
	bigPatch := raster.NewBitGrid(g)
	for i, id := range labels.Data {
		if id > 0 && float64(labels.Sizes[id])*cellKM2 >= minPatchKM2 {
			cy := i / g.NX
			cx := i % g.NX
			bigPatch.Set(cx, cy, true)
		}
	}
	nearBig := raster.DilateByDistance(bigPatch, interfaceDist(g.CellSize))

	classes := raster.NewClassGrid(g)
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			density := pop.At(cx, cy) / cellKM2
			if density < minDensityPerKM2 {
				continue
			}
			switch {
			case veg.Get(cx, cy):
				classes.Set(cx, cy, uint8(Intermix))
			case nearBig.Get(cx, cy):
				classes.Set(cx, cy, uint8(Interface))
			}
		}
	}
	return &Map{Classes: classes, Pop: pop}
}

// ClassAt samples the WUI class at a projected point (NonWUI off-grid).
func (m *Map) ClassAt(p geom.Point) Class {
	v, ok := m.Classes.Sample(p)
	if !ok {
		return NonWUI
	}
	return Class(v)
}

// Population returns the population living in WUI cells.
func (m *Map) Population() float64 {
	g := m.Classes.Geometry
	var t float64
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			if Class(m.Classes.At(cx, cy)).IsWUI() {
				t += m.Pop.At(cx, cy)
			}
		}
	}
	return t
}
