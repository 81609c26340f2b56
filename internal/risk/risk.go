// Package risk is the paper's primary contribution: the geospatial
// overlay engine that joins the cellular infrastructure layer against
// wildfire perimeters, the Wildfire Hazard Potential, county populations
// and future-climate projections, producing every table and figure of the
// evaluation (see DESIGN.md for the experiment index).
package risk

import (
	"runtime"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/census"
	"fivealarms/internal/conus"
	"fivealarms/internal/geodata"
	"fivealarms/internal/pipeline"
	"fivealarms/internal/powergrid"
	"fivealarms/internal/raster"
	"fivealarms/internal/whp"
)

// Analyzer bundles the data layers and caches the per-transceiver WHP
// class, which every analysis reuses.
type Analyzer struct {
	World    *conus.World
	WHP      *whp.Map
	Data     *cellnet.Dataset
	Counties *census.Counties
	Resolver *cellnet.Resolver

	// classOf caches the WHP class at each transceiver.
	classOf []whp.Class
	// county caches the county index of each transceiver (-1
	// off-CONUS), joined on first use (see countyOf).
	county pipeline.Cell[[]int32]

	// networks holds the California power-network topology per
	// NetConfig.Seed as passed (see CaliforniaNetwork); population holds
	// the population surface (see Population). Each is built on first
	// use and read-only after.
	networks   pipeline.Keyed[uint64, *powergrid.Network]
	population pipeline.Cell[*raster.FloatGrid]
}

// New builds an analyzer over the given layers and precomputes the
// per-transceiver WHP class over GOMAXPROCS contiguous ranges of the
// fleet (pipeline.Bands; a pure lookup). The county join waits for
// its first reader.
func New(w *conus.World, m *whp.Map, d *cellnet.Dataset, c *census.Counties) *Analyzer {
	a := &Analyzer{
		World:    w,
		WHP:      m,
		Data:     d,
		Counties: c,
		Resolver: cellnet.NewResolver(),
		classOf:  make([]whp.Class, d.Len()),
	}
	pipeline.Bands(pipeline.BandFunc(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			a.classOf[i] = m.ClassAt(d.T[i].XY)
		}
	}), d.Len(), runtime.GOMAXPROCS(0))
	return a
}

// countyOf returns the county index of each transceiver (-1
// off-CONUS). Only the population analyses read it, so the join runs
// on their first call, over GOMAXPROCS contiguous ranges of the fleet,
// and concurrent first callers share it.
func (a *Analyzer) countyOf() []int32 {
	return a.county.Get(func() []int32 {
		out := make([]int32, a.Data.Len())
		pipeline.Bands(pipeline.BandFunc(func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = int32(a.Counties.CountyAt(a.Data.T[i].XY))
			}
		}), len(out), runtime.GOMAXPROCS(0))
		return out
	})
}

// Class returns the cached WHP class of transceiver i.
func (a *Analyzer) Class(i int) whp.Class { return a.classOf[i] }

// AtRiskCount returns the number of transceivers in the moderate, high or
// very-high classes — the paper's headline "430,844 transceivers at risk"
// metric (scaled to the synthetic snapshot size).
func (a *Analyzer) AtRiskCount() int {
	n := 0
	for _, c := range a.classOf {
		if c.AtRisk() {
			n++
		}
	}
	return n
}

// ClassesAgainst samples a replacement class raster at every transceiver
// location and returns the resulting class slice without touching the
// analyzer's cache (used by the §3.8 extension analysis). Off-raster
// transceivers classify as Water.
func (a *Analyzer) ClassesAgainst(classes *raster.ClassGrid) []whp.Class {
	next := make([]whp.Class, a.Data.Len())
	for i := range a.Data.T {
		v, ok := classes.Sample(a.Data.T[i].XY)
		if !ok {
			next[i] = whp.Water
			continue
		}
		next[i] = whp.Class(v)
	}
	return next
}

// StateCount pairs a state with a count for ranking outputs.
type StateCount struct {
	Abbrev string
	Count  int
	// PerThousand is the count per 1000 residents (per-capita ranking).
	PerThousand float64
}

// stateName returns the abbreviation for a state index, "??" when out of
// range.
func stateName(idx int) string {
	if idx < 0 || idx >= len(geodata.States) {
		return "??"
	}
	return geodata.States[idx].Abbrev
}
