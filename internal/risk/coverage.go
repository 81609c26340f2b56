package risk

import (
	"fivealarms/internal/coverage"
	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
)

// CoverageResult is the service-coverage impact of wildfire-exposed
// infrastructure (§3.11's alternate framing; the abstract's "over 85
// million" people served by at-risk transceivers).
type CoverageResult struct {
	// TotalPopulation is the synthetic population surface total.
	TotalPopulation float64
	// ServedPopulation is the population within serving radius of any
	// transceiver site.
	ServedPopulation float64
	// AtRiskServedPopulation is the population within serving radius of
	// at least one at-risk (moderate+) transceiver — the paper's 85M
	// analog.
	AtRiskServedPopulation float64
	// StrandedPopulation is the population that would lose all coverage
	// if every at-risk transceiver failed simultaneously (the worst-case
	// fire season).
	StrandedPopulation float64
	// RadiusM is the serving radius used.
	RadiusM float64
}

// Population returns the population surface over the world grid
// (coverage.BuildPopulation), built once per Analyzer and shared by
// Coverage, HardeningPlan, EmergencyAnalysis and WUIAnalysis. Every
// call returns the same grid: read-only.
func (a *Analyzer) Population() *raster.FloatGrid {
	return a.population.Get(func() *raster.FloatGrid {
		return coverage.BuildPopulation(a.World, a.Counties)
	})
}

// Coverage computes the population-coverage exposure of the at-risk
// transceiver set with the given serving radius (0 selects the default).
func (a *Analyzer) Coverage(radiusM float64) *CoverageResult {
	model := coverage.New(a.World, a.Population(), radiusM)

	var atRisk, safe []geom.Point
	for i := range a.Data.T {
		if a.classOf[i].AtRisk() {
			atRisk = append(atRisk, a.Data.T[i].XY)
		} else {
			safe = append(safe, a.Data.T[i].XY)
		}
	}
	imp := model.Evaluate(safe, atRisk)
	return &CoverageResult{
		TotalPopulation:        model.TotalPopulation(),
		ServedPopulation:       imp.ServedPopulation,
		AtRiskServedPopulation: imp.ExposedPopulation,
		StrandedPopulation:     imp.StrandedPopulation,
		RadiusM:                model.RadiusM,
	}
}
