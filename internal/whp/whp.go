// Package whp implements the synthetic Wildfire Hazard Potential model —
// the fivealarms stand-in for the USFS WHP raster (Dillon et al. 2014).
//
// The real WHP integrates historical fire occurrence, vegetation and Fsim
// large-fire simulations into a 270 m raster with seven classes. The
// synthetic model reproduces the properties the paper's analyses depend
// on:
//
//   - regional structure: hazard concentrates in the west and southeast
//     (driven by per-state calibration weights in geodata.States);
//   - multi-scale patchiness: very-high areas are small islands inside
//     high areas inside moderate areas (multi-octave value noise);
//   - the wildland-urban gradient: hazard falls toward city cores;
//   - nonburnable urban cores and transportation corridors — the exact
//     property behind the §3.4 validation shortfall and the §3.8
//     half-mile extension.
//
// A Map can be built on any raster geometry (the shared world grid for
// national overlays, or a fine window for the metro maps). An Evaluator
// is the Model bound to one raster geometry: it classifies the cells an
// analysis reads (the buffer-extension experiment) and gives the fire
// simulator the fuel of each cell its race reaches, without
// rasterizing the rest.
package whp

import (
	"image/color"
	"math"

	"fivealarms/internal/conus"
	"fivealarms/internal/geom"
	"fivealarms/internal/noise"
	"fivealarms/internal/pipeline"
	"fivealarms/internal/raster"
)

// Class is a WHP category. The ordering matches the USFS product: higher
// is more hazardous; NonBurnable and Water carry no wildfire hazard.
type Class uint8

// WHP classes.
const (
	Water Class = iota
	NonBurnable
	VeryLow
	Low
	Moderate
	High
	VeryHigh
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Water:
		return "water"
	case NonBurnable:
		return "non-burnable"
	case VeryLow:
		return "very-low"
	case Low:
		return "low"
	case Moderate:
		return "moderate"
	case High:
		return "high"
	case VeryHigh:
		return "very-high"
	default:
		return "invalid"
	}
}

// AtRisk reports whether the class is in the paper's top-three risk bands
// (moderate, high or very high).
func (c Class) AtRisk() bool { return c >= Moderate }

// The model's calibration.
const (
	// NoiseScaleM is the wavelength in meters of the dominant hazard
	// patchiness, a noiseOctaves-octave fBm with gain noiseGain.
	NoiseScaleM  = 220000
	noiseOctaves = 5
	noiseGain    = 0.55
	// UrbanCoreThreshold is the urban intensity at and above which a
	// cell is a built-up core, classified NonBurnable.
	UrbanCoreThreshold = 0.45
	// WUIDamping scales how strongly urban intensity suppresses hazard
	// in the wildland-urban interface.
	WUIDamping = 0.20
)

// The hazard-value cut points: a cell is VeryLow below LowCut, Low below
// ModerateCut, Moderate below HighCut, High below VeryHighCut and
// VeryHigh from there up. They are calibrated so the class histogram
// over placed transceivers reproduces the paper's M > H > VH nesting.
const (
	LowCut      = 0.12
	ModerateCut = 0.26
	HighCut     = 0.42
	VeryHighCut = 0.60
)

// Config holds the model's one setting; everything else is the
// calibration above. The zero value is the national model.
type Config struct {
	// RoadBufferM is the half-width of the nonburnable transportation
	// corridor in meters. Default 1.25 cells of the target geometry.
	RoadBufferM float64
}

// FineConfig is the model of the fine windows (the Figure 13 metro maps
// and the §3.8 fine extension): the national calibration with the road
// corridor at its physical half-width, ~400 m of roadway, shoulders and
// managed verge, rather than the raster-coupled default. That corridor
// is what the §3.8 half-mile buffer reaches across.
var FineConfig = Config{RoadBufferM: 400}

func (c Config) withDefaults(cell float64) Config {
	if c.RoadBufferM == 0 {
		c.RoadBufferM = 1.25 * cell
	}
	return c
}

// Model is the hazard model itself: the calibration and a Config over
// the world fields. A point's hazard is a function of the point alone,
// whatever raster it is read on; an Evaluator reads it at a raster's
// cell centres.
type Model struct {
	Cfg   Config
	world *conus.World
}

// NewModel returns the model that Build rasterizes on a grid of
// cellSize-meter cells (the cell size sets the default road-corridor
// half-width). Bind it to a geometry with Evaluator to classify only the
// cells an analysis reads.
func NewModel(w *conus.World, cellSize float64, cfg Config) *Model {
	return &Model{Cfg: cfg.withDefaults(cellSize), world: w}
}

// Map is a realized WHP raster plus the continuous hazard field it was
// classified from (kept for the fire simulator's fuel model).
type Map struct {
	Model
	Classes *raster.ClassGrid
	Hazard  *raster.FloatGrid
}

// Build computes the WHP over the given geometry (often w.Grid): the
// Model evaluated at every cell center. Rows fan out as one band each
// (pipeline.Bands); the result is deterministic because every cell is a
// pure function of the world fields.
func Build(w *conus.World, g raster.Geometry, cfg Config) *Map {
	m := &Map{
		Model:   *NewModel(w, g.CellSize, cfg),
		Classes: raster.NewClassGrid(g),
		Hazard:  raster.NewFloatGrid(g),
	}
	e := m.Evaluator(g)
	pipeline.Bands(pipeline.BandFunc(func(_, lo, hi int) {
		for cy := lo; cy < hi; cy++ {
			for cx := 0; cx < g.NX; cx++ {
				h, cls := e.Evaluate(cx, cy)
				m.Hazard.Set(cx, cy, h)
				m.Classes.Set(cx, cy, uint8(cls))
			}
		}
	}), g.NY, g.NY)
	return m
}

// An Evaluator is a Model bound to a raster geometry. It evaluates the
// model at the geometry's cell centres: every quantity the model reads
// depends on a centre's column alone, its row alone, or a noise lattice
// cell, so the Evaluator tabulates them per column, per row and per
// lattice cell, and each evaluation is table loads, the road test and
// the model's arithmetic. Its results equal the model's at the cell
// centres bit for bit. Reset rebinds an Evaluator to another geometry,
// reusing its tables; an Evaluator is safe for concurrent use between
// Resets.
type Evaluator struct {
	m          *Model
	cols, rows []axisCell
	noise      *noise.Table
	xs, ys     []float64 // scratch: noise coordinates of the centres
}

// axisCell is one column (or row) of an Evaluator's geometry: the
// coordinate of its cell centres and the world-grid column (row) holding
// them, -1 off the world grid.
type axisCell struct {
	at    float64
	world int
}

// Evaluator returns the model bound to g.
func (m *Model) Evaluator(g raster.Geometry) *Evaluator {
	e := &Evaluator{m: m, noise: m.world.Noise().NewTable(noiseOctaves, noiseGain)}
	e.Reset(g)
	return e
}

// Reset binds e to g.
func (e *Evaluator) Reset(g raster.Geometry) {
	wg := e.m.world.Grid
	e.cols, e.xs = bindAxis(e.cols, e.xs, g.NX, g.ColX, wg.Col)
	e.rows, e.ys = bindAxis(e.rows, e.ys, g.NY, g.RowY, wg.Row)
	e.noise.Reset(e.xs, e.ys)
}

// bindAxis fills cells and the noise coordinates coords, reusing their
// storage, for the n columns (or rows) of a geometry whose centres lie
// at at(i), placing each in the world grid with world.
func bindAxis(cells []axisCell, coords []float64, n int,
	at func(int) float64, world func(float64) (int, bool)) ([]axisCell, []float64) {
	if cap(cells) < n {
		cells, coords = make([]axisCell, n), make([]float64, n)
	}
	cells, coords = cells[:n], coords[:n]
	for i := range cells {
		c := at(i)
		wi, ok := world(c)
		if !ok {
			wi = -1
		}
		cells[i] = axisCell{at: c, world: wi}
		coords[i] = c / NoiseScaleM
	}
	return cells, coords
}

// site returns the state index and urban intensity at the centre of
// cell (cx, cy), and the world cell holding it; the state index is -1
// outside the CONUS.
func (e *Evaluator) site(cx, cy int) (si int, urban float64, c int) {
	wx, wy := e.cols[cx].world, e.rows[cy].world
	if wx < 0 || wy < 0 {
		return -1, 0, 0
	}
	w := e.m.world
	c = wy*w.Grid.NX + wx
	if v := w.StateZone.Data[c]; v != 0 {
		return int(v) - 1, w.Urban.Data[c], c
	}
	return -1, 0, c
}

// nearRoad reports whether the centre of cell (cx, cy), which lies in
// world cell c, lies in the nonburnable road corridor.
func (e *Evaluator) nearRoad(cx, cy, c int) bool {
	p := geom.Point{X: e.cols[cx].at, Y: e.rows[cy].at}
	return e.m.world.RoadDistIn(c, p) <= e.m.Cfg.RoadBufferM
}

// Evaluate returns the continuous hazard and class at the centre of cell
// (cx, cy). Build stores it for every cell.
func (e *Evaluator) Evaluate(cx, cy int) (float64, Class) {
	si, urban, c := e.site(cx, cy)
	if si < 0 {
		return 0, Water
	}
	if urban >= UrbanCoreThreshold {
		return 0, NonBurnable
	}
	if e.nearRoad(cx, cy, c) {
		return 0, NonBurnable
	}
	h := hazard(si, urban, e.noise.At(cx, cy))
	return h, classify(h)
}

// FuelAt returns the continuous fuel loading at the centre of cell
// (cx, cy) for the fire-spread simulator: 0 outside the CONUS (fires
// cannot burn into the ocean), a small permeability for nonburnable
// urban cores and road corridors (wind-driven spotting lets real fires
// cross them — the Saddle Ridge/Tick mechanism of §3.4), and the hazard
// value elsewhere with a floor so even very-low-hazard wildland carries
// some fuel. It derives from the world fields, not from the class
// raster, so the fire's resolution is its own.
func (e *Evaluator) FuelAt(cx, cy int) float64 {
	si, urban, c := e.site(cx, cy)
	if si < 0 {
		return 0
	}
	if urban >= UrbanCoreThreshold || e.nearRoad(cx, cy, c) {
		return 0.03
	}
	h := hazard(si, urban, e.noise.At(cx, cy))
	if h < 0.05 {
		return 0.05
	}
	return h
}

// hazard returns the continuous hazard in [0,1) at a point given its
// state index, urban intensity and hazard noise n.
func hazard(stateIdx int, urban, n float64) float64 {
	base := stateHazard(stateIdx)
	// Mix: the state weight sets the regional level, noise modulates it.
	h := base * (0.15 + 0.85*n)
	// The wildland-urban interface: hazard decays toward the urban core.
	damp := 1 - WUIDamping*math.Min(urban/UrbanCoreThreshold, 1)
	h *= damp
	if h < 0 {
		h = 0
	}
	if h >= 1 {
		h = 0.999
	}
	return h
}

// classify returns the class of hazard h under the cut points.
func classify(h float64) Class {
	switch {
	case h < LowCut:
		return VeryLow
	case h < ModerateCut:
		return Low
	case h < HighCut:
		return Moderate
	case h < VeryHighCut:
		return High
	default:
		return VeryHigh
	}
}

// ClassAt samples the class raster at a projected point; points off the
// raster return Water.
func (m *Map) ClassAt(p geom.Point) Class {
	v, ok := m.Classes.Sample(p)
	if !ok {
		return Water
	}
	return Class(v)
}

// HazardAt samples the continuous hazard at a projected point (0 off the
// raster).
func (m *Map) HazardAt(p geom.Point) float64 {
	v, _ := m.Hazard.Sample(p)
	return v
}

// ClassMask returns the mask of cells holding exactly class c.
func (m *Map) ClassMask(c Class) *raster.BitGrid {
	return m.Classes.Mask(func(v uint8) bool { return Class(v) == c })
}

// AtRiskMask returns the mask of cells in the moderate..very-high classes.
func (m *Map) AtRiskMask() *raster.BitGrid {
	return m.Classes.Mask(func(v uint8) bool { return Class(v).AtRisk() })
}

// ExtendVeryHigh returns a copy of the class raster where every cell
// within dist meters of a very-high cell — and not already moderate, high
// or very high — is promoted to VeryHigh. This is the §3.8 operation: it
// captures road corridors and urban fringes adjacent to the most hazardous
// wildland, where power- and backhaul-mediated outages concentrate.
func (m *Map) ExtendVeryHigh(dist float64) *raster.ClassGrid {
	vh := m.ClassMask(VeryHigh)
	grown := raster.DilateByDistance(vh, dist)
	out := m.Classes.Clone()
	grown.ForEachSetRun(func(cy, cx0, cx1 int) {
		for cx := cx0; cx <= cx1; cx++ {
			if c := Class(out.At(cx, cy)); !c.AtRisk() {
				out.Set(cx, cy, uint8(VeryHigh))
			}
		}
	})
	return out
}

// ClassCounts returns the cell count per class.
func (m *Map) ClassCounts() map[Class]int {
	h := m.Classes.Histogram()
	out := make(map[Class]int, int(numClasses))
	for c := Class(0); c < numClasses; c++ {
		if h[c] > 0 {
			out[c] = h[c]
		}
	}
	return out
}

// Palette renders the WHP in the color scheme of the paper's Figure 6:
// reds/yellows for the hazardous classes, greens/black for the rest.
func Palette() raster.Palette {
	return raster.Palette{
		uint8(Water):       color.RGBA{R: 10, G: 10, B: 40, A: 255},
		uint8(NonBurnable): color.RGBA{R: 40, G: 40, B: 40, A: 255},
		uint8(VeryLow):     color.RGBA{R: 10, G: 60, B: 10, A: 255},
		uint8(Low):         color.RGBA{R: 40, G: 110, B: 40, A: 255},
		uint8(Moderate):    color.RGBA{R: 250, G: 230, B: 80, A: 255},
		uint8(High):        color.RGBA{R: 250, G: 150, B: 40, A: 255},
		uint8(VeryHigh):    color.RGBA{R: 220, G: 30, B: 30, A: 255},
	}
}

// stateHazard returns the calibration weight for a state index, 0 for
// invalid indexes.
func stateHazard(idx int) float64 {
	if idx < 0 {
		return 0
	}
	return stateHazards[idx]
}
