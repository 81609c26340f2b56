package risk

import (
	"slices"

	"fivealarms/internal/raster"
	"fivealarms/internal/whp"
	"fivealarms/internal/wildfire"
)

// ValidationResult reproduces §3.4: how well the WHP identifies the
// transceivers that ended up inside a held-out season's fire perimeters.
type ValidationResult struct {
	// InPerimeter is the number of transceivers inside any perimeter of
	// the validation season (the paper's 656).
	InPerimeter int
	// Predicted is how many of those the WHP placed in moderate or higher
	// (the paper's 302, 46%).
	Predicted int
	// MissesInRoadFires counts unpredicted transceivers that sat inside
	// road-corridor fires (the Saddle Ridge/Tick analog: 288).
	MissesInRoadFires int
	// RoadFireTotal counts all in-perimeter transceivers inside
	// road-corridor fires (predicted or not).
	RoadFireTotal int
}

// AccuracyPct is Predicted/InPerimeter as a percentage.
func (v *ValidationResult) AccuracyPct() float64 {
	if v.InPerimeter == 0 {
		return 0
	}
	return 100 * float64(v.Predicted) / float64(v.InPerimeter)
}

// AccuracyExclRoadPct recomputes accuracy after discarding the
// road-corridor misses, the paper's 84% figure.
func (v *ValidationResult) AccuracyExclRoadPct() float64 {
	denom := v.InPerimeter - v.MissesInRoadFires
	if denom <= 0 {
		return 0
	}
	return 100 * float64(v.Predicted) / float64(denom)
}

// Validate joins the validation season's perimeters against the cached
// WHP classes.
func (a *Analyzer) Validate(season *wildfire.Season) *ValidationResult {
	return a.ValidateFor(season, a.classOf)
}

// ValidateFor runs the validation join against an explicit class slice
// (e.g. one produced by ClassesAgainst). Read-only: safe under
// concurrent analyses.
func (a *Analyzer) ValidateFor(season *wildfire.Season, classOf []whp.Class) *ValidationResult {
	return a.validateFor(season, classOf, wholeFleet)
}

// validateFor is ValidateFor over band b of the fleet.
func (a *Analyzer) validateFor(season *wildfire.Season, classOf []whp.Class, b Band) *ValidationResult {
	hits := a.seasonHits(season, b, nil)
	road := a.seasonHits(season, b, func(f *wildfire.Fire) bool { return f.RoadCorridor })
	res := &ValidationResult{InPerimeter: len(hits)}
	for _, ti := range hits {
		predicted := classOf[ti].AtRisk()
		if predicted {
			res.Predicted++
		}
		if _, inRoad := slices.BinarySearch(road, ti); inRoad {
			res.RoadFireTotal++
			if !predicted {
				res.MissesInRoadFires++
			}
		}
	}
	return res
}

// ExtensionResult reproduces §3.8: buffering the very-high class by half
// a mile and its effect on class totals and validation accuracy.
type ExtensionResult struct {
	DistM             float64
	VHBefore, VHAfter int
	TotalBefore       int // M+H+VH before
	TotalAfter        int // M+H+VH(extended) after
	Before, After     *ValidationResult
}

// ExtendAndValidate runs the §3.8 experiment: extend very-high by dist
// meters, recount the classes against the extended raster, and re-run
// the validation. The extended classification lives in a local slice, so
// the analyzer's shared cache is never touched and concurrent analyses
// are unaffected. The class raster's resolution bounds the effective
// buffer: at cells coarser than dist the dilation cannot grow
// (documented in EXPERIMENTS.md; full-scale runs use a fine raster).
func (a *Analyzer) ExtendAndValidate(season *wildfire.Season, dist float64) *ExtensionResult {
	res := &ExtensionResult{DistM: dist}

	before := a.WHPOverlay()
	res.VHBefore = before.ByClass[whp.VeryHigh]
	res.TotalBefore = before.AtRisk()
	res.Before = a.Validate(season)

	extended := a.ClassesAgainst(a.WHP.ExtendVeryHigh(dist))
	after := a.WHPOverlayFor(extended)
	res.VHAfter = after.ByClass[whp.VeryHigh]
	res.TotalAfter = after.AtRisk()
	res.After = a.ValidateFor(season, extended)
	return res
}

// ExtendedClasses exposes the extended class raster for rendering.
func (a *Analyzer) ExtendedClasses(dist float64) *raster.ClassGrid {
	return a.WHP.ExtendVeryHigh(dist)
}
