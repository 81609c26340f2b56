package fivealarms

import "fivealarms/internal/risk"

// ExtendOptions parameterizes the §3.8 very-high extension experiment
// behind the unified ExtendWith entry point.
type ExtendOptions struct {
	// CellSizeM selects the analysis raster. 0 keeps the study's shared
	// national raster (the coarse path). A positive value finer than the
	// national raster classifies against a WHP grid of that resolution
	// over the California validation window (the fine path) — the
	// paper's own setup, since an 804 m buffer cannot grow on a 10 km
	// raster. The fine path evaluates the WHP only at the window cells
	// its counts read, so its cost follows the window's transceivers,
	// not the window's cell count.
	CellSizeM float64
	// DistM is the very-high dilation distance in meters. 0 selects the
	// paper's half mile (804.67 m) on the fine path; on the coarse path
	// the default is max(half mile, one raster cell) so the buffer can
	// grow at all.
	DistM float64
}

// ExtendReport is the unified result of ExtendWith: the headline
// before/after numbers plus whichever underlying result the selected
// path produced (exactly one of Coarse or Window is non-nil).
type ExtendReport struct {
	// Fine reports which path ran (see ExtendOptions.CellSizeM).
	Fine bool
	// CellSizeM and DistM echo the resolved parameters.
	CellSizeM, DistM float64
	// VHBefore and VHAfter count very-high transceivers before and after
	// the dilation (window-scoped on the fine path).
	VHBefore, VHAfter int
	// AccuracyBeforePct and AccuracyAfterPct are the validation hit
	// rates against the 2019 hold-out season.
	AccuracyBeforePct, AccuracyAfterPct float64
	// Coarse is the national-raster result (coarse path only).
	Coarse *risk.ExtensionResult
	// Window is the California-window result (fine path only).
	Window *risk.FineExtension
}

// ExtendWith runs the §3.8 experiment through one entry point, selecting
// between the coarse national raster and the fine California window.
//
// Selection rule: opts.CellSizeM == 0 (or >= the study's raster cell)
// runs the coarse path on the shared national raster — cheap, but the
// effective buffer is bounded below by one raster cell. A positive
// opts.CellSizeM finer than the national raster runs the fine path: the
// window transceivers are classified against a WHP grid of that
// resolution over the California window, evaluated only at the cells
// their classes depend on, which can express the paper's true half-mile
// buffer (the paper's 46% -> 62% accuracy experiment). Both paths memoize per parameter set, so
// repeated calls are cache hits.
func (s *Study) ExtendWith(opts ExtendOptions) *ExtendReport {
	coarseCell := s.World.Grid.CellSize
	if opts.CellSizeM > 0 && opts.CellSizeM < coarseCell {
		res := s.extendFine(opts.CellSizeM, opts.DistM)
		return &ExtendReport{
			Fine:              true,
			CellSizeM:         res.CellSize,
			DistM:             res.DistM,
			VHBefore:          res.VHBefore,
			VHAfter:           res.VHAfter,
			AccuracyBeforePct: res.AccuracyBeforePct(),
			AccuracyAfterPct:  res.AccuracyAfterPct(),
			Window:            res,
		}
	}
	dist := opts.DistM
	if dist <= 0 {
		dist = 804.67
		if dist < coarseCell {
			dist = coarseCell
		}
	}
	res := s.extendCoarse(dist)
	return &ExtendReport{
		CellSizeM:         coarseCell,
		DistM:             res.DistM,
		VHBefore:          res.VHBefore,
		VHAfter:           res.VHAfter,
		AccuracyBeforePct: res.Before.AccuracyPct(),
		AccuracyAfterPct:  res.After.AccuracyPct(),
		Coarse:            res,
	}
}
