// Package coverage models cellular service coverage — the paper's §3.11
// "alternate approach": instead of counting at-risk transceivers, measure
// the population whose service depends on them. The abstract quantifies
// this as "aggregate populations of the areas served by these
// transceivers is over 85 million".
//
// The model is deliberately simple and auditable: a population surface is
// synthesized by distributing each county's population over its cells in
// proportion to urban intensity; a cell is "served" by a site when it
// lies within the serving radius; coverage loss is the population of
// cells all of whose serving sites are lost.
package coverage

import (
	"fivealarms/internal/census"
	"fivealarms/internal/conus"
	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
)

// Model holds the population surface and serving-radius configuration.
type Model struct {
	World *conus.World
	// Pop is the population per world-grid cell.
	Pop *raster.FloatGrid
	// RadiusM is the serving radius of a cell site. The default 10 km is
	// a generous macro-cell reach; dense urban cells serve far less, but
	// the coverage question is "is anyone left serving this area".
	RadiusM float64
}

// DefaultRadiusM is the default serving radius.
const DefaultRadiusM = 10000

// New returns a model over the population surface pop (BuildPopulation's
// output for w). radiusM 0 or below selects DefaultRadiusM. The model
// only reads pop, so one surface can serve many models.
func New(w *conus.World, pop *raster.FloatGrid, radiusM float64) *Model {
	if radiusM <= 0 {
		radiusM = DefaultRadiusM
	}
	return &Model{World: w, Pop: pop, RadiusM: radiusM}
}

// BuildPopulation distributes county populations over the world grid:
// within each county, cells receive population proportional to their
// urban intensity, with the county-seat cell boosted so rural counties
// concentrate their people in a town rather than spreading them uniformly
// over wildland — the same gradient the census tracts the paper used
// encode.
func BuildPopulation(w *conus.World, counties *census.Counties) *raster.FloatGrid {
	g := w.Grid
	pop := raster.NewFloatGrid(g)

	// County-seat cells get a town-sized weight boost.
	seatCell := make(map[int]int, len(counties.All))
	for ci := range counties.All {
		if cx, cy, ok := g.CellOf(counties.All[ci].Seed); ok {
			seatCell[ci] = cy*g.NX + cx
		} else {
			seatCell[ci] = -1
		}
	}

	// First pass: per-cell county assignment and weight.
	countyOf := make([]int32, g.Cells())
	weights := make([]float64, g.Cells())
	countyWeightSum := make([]float64, len(counties.All))
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			i := cy*g.NX + cx
			countyOf[i] = -1
			if w.StateZone.At(cx, cy) == 0 {
				continue
			}
			p := g.Center(cx, cy)
			ci := counties.CountyAt(p)
			if ci < 0 {
				continue
			}
			wgt := w.Urban.At(cx, cy) + 0.002
			if seatCell[ci] == i {
				wgt += 0.35 // the county town
			}
			countyOf[i] = int32(ci)
			weights[i] = wgt
			countyWeightSum[ci] += wgt
		}
	}
	// Second pass: distribute.
	for i, ci := range countyOf {
		if ci < 0 {
			continue
		}
		if s := countyWeightSum[ci]; s > 0 {
			pop.Data[i] = float64(counties.All[ci].Pop) * weights[i] / s
		}
	}
	// Counties that won no cells (tiny zones shadowed by weighted
	// neighbors at coarse resolutions) deposit their population at the
	// cell containing their seed, conserving the national total.
	for ci := range counties.All {
		if countyWeightSum[ci] > 0 {
			continue
		}
		if cx, cy, ok := g.CellOf(counties.All[ci].Seed); ok {
			pop.Set(cx, cy, pop.At(cx, cy)+float64(counties.All[ci].Pop))
		}
	}
	return pop
}

// TotalPopulation sums the surface.
func (m *Model) TotalPopulation() float64 {
	var t float64
	for _, v := range m.Pop.Data {
		t += v
	}
	return t
}

// ServedMask returns the cells within the serving radius of at least one
// of the given site positions, computed with an exact distance transform.
func (m *Model) ServedMask(sites []geom.Point) *raster.BitGrid {
	g := m.World.Grid
	seed := raster.NewBitGrid(g)
	for _, p := range sites {
		if cx, cy, ok := g.CellOf(p); ok {
			seed.Set(cx, cy, true)
		}
	}
	return raster.DilateByDistance(seed, m.RadiusM)
}

// Population sums the population of the set cells. Set runs iterate in
// row-major order — the same order the per-cell scan visited them — so
// the float sum is bit-identical to the naive loop.
func (m *Model) Population(mask *raster.BitGrid) float64 {
	var t float64
	mask.ForEachSetRun(func(cy, cx0, cx1 int) {
		for cx := cx0; cx <= cx1; cx++ {
			t += m.Pop.At(cx, cy)
		}
	})
	return t
}

// Impact quantifies a failure set: all -> population served by any site,
// exposed -> population within reach of at least one failing site,
// stranded -> population whose every serving site fails.
type Impact struct {
	ServedPopulation   float64 // pop within radius of any site
	ExposedPopulation  float64 // pop within radius of a failing site
	StrandedPopulation float64 // pop losing all service
}

// Evaluate computes the impact of losing the failing sites while the
// surviving sites stay up.
func (m *Model) Evaluate(surviving, failing []geom.Point) Impact {
	failMask := m.ServedMask(failing)
	surviveMask := m.ServedMask(surviving)

	allMask := failMask.Clone()
	// Same geometry by construction.
	_ = allMask.Or(surviveMask) //fivealarms:allow(errflow) Clone guarantees identical geometry, the only error Or can report
	stranded := failMask.Clone()
	_ = stranded.AndNot(surviveMask) //fivealarms:allow(errflow) Clone guarantees identical geometry, the only error AndNot can report

	return Impact{
		ServedPopulation:   m.Population(allMask),
		ExposedPopulation:  m.Population(failMask),
		StrandedPopulation: m.Population(stranded),
	}
}
