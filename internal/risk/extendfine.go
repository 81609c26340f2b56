package risk

import (
	"runtime"
	"slices"

	"fivealarms/internal/geom"
	"fivealarms/internal/pipeline"
	"fivealarms/internal/raster"
	"fivealarms/internal/whp"
	"fivealarms/internal/wildfire"
)

// FineExtension is the §3.8 experiment at sub-kilometer resolution: a
// fine WHP window over the validation region, the true half-mile buffer,
// and the before/after accuracy the paper reports (46% -> 62%). The
// national raster cannot express an 800 m buffer; this window can.
type FineExtension struct {
	// CellSize and DistM describe the window raster and buffer.
	CellSize, DistM float64
	// WindowTransceivers is the fleet inside the window.
	WindowTransceivers int
	// InPerimeter counts window transceivers inside the season's
	// window-intersecting fire perimeters.
	InPerimeter int
	// PredictedBefore/After count those in moderate+ classes before and
	// after the very-high extension.
	PredictedBefore, PredictedAfter int
	// VHBefore/After count window transceivers classified very-high.
	VHBefore, VHAfter int
}

// AccuracyBeforePct returns the pre-extension hit rate.
func (f *FineExtension) AccuracyBeforePct() float64 {
	if f.InPerimeter == 0 {
		return 0
	}
	return 100 * float64(f.PredictedBefore) / float64(f.InPerimeter)
}

// AccuracyAfterPct returns the post-extension hit rate.
func (f *FineExtension) AccuracyAfterPct() float64 {
	if f.InPerimeter == 0 {
		return 0
	}
	return 100 * float64(f.PredictedAfter) / float64(f.InPerimeter)
}

// ExtendAndValidateFine runs the fine-resolution §3.8 experiment over the
// California case-study region: classify the window's transceivers
// against the WHP at cellSize meters, join them against the season's
// perimeters, then dilate the very-high class by distM (the paper:
// 804.67 m) and re-classify. cellSize 0 selects 800 m; distM 0 selects
// the half mile.
//
// The counts equal those read off the WHP rasterized over the whole
// window (1,166,724 cells at 800 m) and dilated there, but the model is
// evaluated only at the cells they depend on: each transceiver's cell
// and, around a cell not already at risk, the disk of cells the
// dilation would search. Cost scales with the window transceivers'
// distinct cells times the disk's area; the national analyses stay on
// the coarse shared raster.
func (a *Analyzer) ExtendAndValidateFine(season *wildfire.Season, cellSize, distM float64) *FineExtension {
	if cellSize <= 0 {
		cellSize = 800
	}
	if distM <= 0 {
		distM = 0.5 * geom.MetersPerMile
	}
	region := a.CaliforniaRegion().Intersection(a.World.Grid.Bounds())
	g := raster.NewGeometry(region, cellSize)
	model := whp.NewModel(a.World, cellSize, whp.FineConfig)

	res := &FineExtension{CellSize: cellSize, DistM: distM}

	// The window transceivers' distinct cells, and how many transceivers
	// each holds. A transceiver off the geometry reads Water before and
	// after, as a raster sample off the grid does.
	ids := a.Data.Index.Query(region, nil)
	res.WindowTransceivers = len(ids)
	cells := make([]int, 0, len(ids))
	var held []int
	for _, ti := range ids {
		if c, ok := cellIndex(g, a.Data.T[ti].XY); ok {
			cells = append(cells, c)
		}
	}
	slices.Sort(cells)
	for i, c := range cells {
		if i == 0 || c != cells[i-1] {
			held = append(held, 0)
		}
		held[len(held)-1]++
	}
	cells = slices.Compact(cells)
	before, after := extendCells(model, g, cells, distM)
	for k, n := range held {
		if before[k] == whp.VeryHigh {
			res.VHBefore += n
		}
		if after[k] == whp.VeryHigh {
			res.VHAfter += n
		}
	}
	classAt := func(p geom.Point) (whp.Class, whp.Class) {
		if c, ok := cellIndex(g, p); ok {
			if k, found := slices.BinarySearch(cells, c); found {
				return before[k], after[k]
			}
		}
		return whp.Water, whp.Water
	}

	// Join the window's transceivers against the fires that reach it.
	inWindow := func(f *wildfire.Fire) bool { return f.BBox().Intersects(region) }
	for _, ti := range a.seasonHits(season, wholeFleet, inWindow) {
		p := a.Data.T[ti].XY
		if !region.ContainsPoint(p) {
			continue
		}
		res.InPerimeter++
		cb, ca := classAt(p)
		if cb.AtRisk() {
			res.PredictedBefore++
		}
		if ca.AtRisk() {
			res.PredictedAfter++
		}
	}
	return res
}

// cellIndex returns the linear index of the cell of g holding p, and
// whether p is on g.
func cellIndex(g raster.Geometry, p geom.Point) (int, bool) {
	cx, cy, ok := g.CellOf(p)
	return cy*g.NX + cx, ok
}

// extendCells returns the class of each cell in cells (distinct linear
// indexes into g) before and after every cell within distM of a
// very-high cell, and not already at risk, turns very-high. That is
// whp.Map.ExtendVeryHigh read at those cells, with each cell of g
// classified at most once.
func extendCells(m *whp.Model, g raster.Geometry, cells []int, distM float64) (before, after []whp.Class) {
	e := m.Evaluator(g)
	before = make([]whp.Class, len(cells))
	for i, c := range cells {
		_, before[i] = e.Evaluate(c%g.NX, c/g.NX)
	}
	disk := raster.DilationDisk(g, distM)
	// The cells the dilation reads for the cells it may promote, less
	// the ones classified above.
	need := raster.NewBitGrid(g)
	for i, c := range cells {
		if !before[i].AtRisk() {
			disk.Cover(need, c%g.NX, c/g.NX)
		}
	}
	for _, c := range cells {
		need.Set(c%g.NX, c/g.NX, false)
	}
	vh := veryHighCells(e, need)
	for i, c := range cells {
		if before[i] == whp.VeryHigh {
			vh.Set(c%g.NX, c/g.NX, true)
		}
	}
	after = slices.Clone(before)
	for i, c := range cells {
		if !before[i].AtRisk() && disk.Reaches(vh, c%g.NX, c/g.NX) {
			after[i] = whp.VeryHigh
		}
	}
	return before, after
}

// cellRun is the cells cx0..cx1 of row cy.
type cellRun struct{ cy, cx0, cx1 int }

// veryHighCells classifies every set cell of cells once and returns the
// very-high ones. The runs of set cells fan out over GOMAXPROCS
// contiguous bands (pipeline.Bands). BitGrid packs rows into shared
// words, so each band lists its very-high runs and the lists are set
// into the result after the join.
func veryHighCells(e *whp.Evaluator, cells *raster.BitGrid) *raster.BitGrid {
	var runs []cellRun
	cells.ForEachSetRun(func(cy, cx0, cx1 int) {
		runs = append(runs, cellRun{cy, cx0, cx1})
	})
	found := make([][]cellRun, runtime.GOMAXPROCS(0))
	pipeline.Bands(pipeline.BandFunc(func(band, lo, hi int) {
		var out []cellRun
		for _, r := range runs[lo:hi] {
			for cx := r.cx0; cx <= r.cx1; cx++ {
				if _, c := e.Evaluate(cx, r.cy); c != whp.VeryHigh {
					continue
				}
				if n := len(out); n > 0 && out[n-1].cy == r.cy && out[n-1].cx1 == cx-1 {
					out[n-1].cx1 = cx
				} else {
					out = append(out, cellRun{r.cy, cx, cx})
				}
			}
		}
		found[band] = out
	}), len(runs), len(found))
	vh := raster.NewBitGrid(cells.Geometry)
	for _, out := range found {
		for _, r := range out {
			vh.SetSpan(r.cy, r.cx0, r.cx1)
		}
	}
	return vh
}
