// Package wildfire implements the GeoMAC-style historical fire layer: a
// per-season catalog of fires with mapped perimeters, produced by a
// stochastic fire-spread simulator running over the shared fuel model.
//
// # Size model
//
// Fire sizes follow a truncated power law, the distribution the highly
// optimized tolerance (HOT) framework predicts and the paper cites
// (Moritz et al. 2005). Each season draws its mapped-fire sizes from the
// tail and rescales them so the season total matches the calibration
// target (the paper's Table 1 burned-acre marginals) — the heavy tail is
// preserved, the marginal is exact.
//
// # Spread model
//
// A fire grows over a local fine-resolution window by an exponential-race
// region growth (stochastic Dijkstra): each frontier cell ignites after an
// Exp(fuel x wind-alignment) delay, so the burn expands preferentially
// through heavy fuel and downwind, producing the irregular, elongated
// shapes of real perimeters. Nonburnable corridors have low but non-zero
// permeability, so wind-driven fires occasionally jump roads — the
// mechanism behind the paper's §3.4 validation outliers. The final burned
// mask is traced (marching contours) into a GeoMAC-style MultiPolygon.
//
// Each window cell's fuel is evaluated once, when the race first reaches
// it, and a cell keeps the delay of its first arrival: the draw of every
// later arrival is skipped, the fire's stream stepped past it in one
// multiply-add (rng.Source.SkipFloat64) without building the number.
// The frontier is a radix heap over the bits of the arrival times, which
// only grow, and the window's cell states carry a one-cell border that
// holds no fuel, so the race reads a cell's 8 neighbours at fixed
// offsets and stops at the window's edge without a bounds test.
//
// # Joins
//
// A simulated fire also keeps its burned cells, cropped to their
// bounding box. The traced rings run along cell edges, so a point lies
// inside the perimeter exactly when the burned mask holds the half-open
// cell under it: Fire.Contains reads that one cell and Fire.BBox returns
// the crop's box, each bit-identical to the perimeter's own answer. Every
// join against transceivers and PSPS sites asks these two methods.
package wildfire

import (
	"fmt"
	"math"
	"math/bits"

	"fivealarms/internal/conus"
	"fivealarms/internal/geom"
	"fivealarms/internal/pipeline"
	"fivealarms/internal/raster"
	"fivealarms/internal/rng"
	"fivealarms/internal/whp"
)

// Fire is one mapped wildfire with its perimeter. The simulator makes
// every Fire, so each one also holds the burned cells its perimeter was
// traced from, which answer Contains and BBox. Fire values copy freely:
// copies share the cells, which are never written after the fire burns.
type Fire struct {
	ID        int
	Name      string
	Year      int
	StartDay  int // day of year
	EndDay    int
	Acres     float64 // area within the final perimeter
	Ignition  geom.Point
	Perimeter geom.MultiPolygon // projected coordinates
	StateIdx  int
	// RoadCorridor marks fires whose burned area includes a significant
	// share of nonburnable corridor cells (the Saddle Ridge/Tick class of
	// validation outliers).
	RoadCorridor bool
	// WindDeg is the prevailing spread direction (degrees, math
	// convention) used during growth.
	WindDeg float64

	// cells holds the burned cells the perimeter was traced from.
	cells *burnedCells
}

// Contains reports whether p lies inside the fire's perimeter, exactly
// as f.Perimeter.ContainsPoint answers, by reading the one burned cell
// that could hold p.
func (f *Fire) Contains(p geom.Point) bool { return f.cells.contains(p) }

// BBox returns the perimeter's bounding box, bit for bit
// f.Perimeter.BBox(), kept from when the fire burned.
func (f *Fire) BBox() geom.BBox { return f.cells.box }

// burnedCells is the burned mask a simulated fire's perimeter was traced
// from, cropped to the burned cells' columns x0..x1 and rows y0..y1 of
// the fire's window grid win.
//
// The tracer puts every ring corner on a window vertex, at exactly
// x(vx) = win.MinX + float64(vx)*win.CellSize and y(vy) likewise, and
// the ray cast counts a vertical edge at x when lo <= p.Y < hi and
// p.X < x, a horizontal edge never. So a point is inside the perimeter
// exactly when its half-open cell [x(i), x(i+1)) × [y(j), y(j+1)) is
// burned, on the edges and corners too. The cell is located against
// those same expressions (vertex), never against an origin re-based on
// the crop, whose sums can round differently.
type burnedCells struct {
	win    raster.Geometry
	x0, y0 int
	// crop holds window cell (x0+i, y0+j) at (i, j); its geometry only
	// sizes it.
	crop raster.BitGrid
	box  geom.BBox // [x(x0), x(x1+1)] × [y(y0), y(y1+1)]
}

// cropCells returns the burned cells of mask, which holds at least one.
func cropCells(mask *raster.BitGrid) *burnedCells {
	x0, x1, y0, y1 := mask.NX, -1, mask.NY, -1
	mask.ForEachSetRun(func(cy, cx0, cx1 int) {
		x0, x1 = min(x0, cx0), max(x1, cx1)
		y0, y1 = min(y0, cy), max(y1, cy)
	})
	c := &burnedCells{win: mask.Geometry, x0: x0, y0: y0}
	c.crop = *raster.NewBitGrid(raster.Geometry{NX: x1 - x0 + 1, NY: y1 - y0 + 1})
	mask.ForEachSetRun(func(cy, cx0, cx1 int) { c.crop.SetSpan(cy-y0, cx0-x0, cx1-x0) })
	g := mask.Geometry
	c.box = geom.BBox{
		MinX: vertex(g.MinX, g.CellSize, x0), MinY: vertex(g.MinY, g.CellSize, y0),
		MaxX: vertex(g.MinX, g.CellSize, x1+1), MaxY: vertex(g.MinY, g.CellSize, y1+1),
	}
	return c
}

// contains reports whether the half-open window cell holding p is
// burned.
func (c *burnedCells) contains(p geom.Point) bool {
	if !(p.X >= c.box.MinX && p.X < c.box.MaxX && p.Y >= c.box.MinY && p.Y < c.box.MaxY) {
		return false // off the crop, or NaN
	}
	g := c.win
	i := cellBelow(p.X, g.MinX, g.CellSize, c.x0, c.x0+c.crop.NX-1)
	j := cellBelow(p.Y, g.MinY, g.CellSize, c.y0, c.y0+c.crop.NY-1)
	return c.crop.Get(i-c.x0, j-c.y0)
}

// vertex is the coordinate of vertex k of a grid axis starting at origin
// with cells cs wide, computed as raster.TraceContours computes its ring
// corners.
func vertex(origin, cs float64, k int) float64 { return origin + float64(k)*cs }

// cellBelow returns the cell k in lo..hi of a grid axis with
// vertex(origin, cs, k) <= t < vertex(origin, cs, k+1); t must lie in
// [vertex(lo), vertex(hi+1)). The floor of the quotient is at most one
// cell off, since t and the vertices are within rounding of their exact
// values, and the comparisons against the vertices settle it.
func cellBelow(t, origin, cs float64, lo, hi int) int {
	k := min(max(int((t-origin)/cs), lo), hi)
	for t < vertex(origin, cs, k) {
		k--
	}
	for t >= vertex(origin, cs, k+1) {
		k++
	}
	return k
}

// Season is one simulated fire year.
type Season struct {
	Year int
	// TotalFires and TotalAcres are season-level statistics including the
	// unmapped small fires (GeoMAC maps only sizable incidents; national
	// fire counts come from NIFC statistics).
	TotalFires int
	TotalAcres float64
	// Mapped are the fires with simulated perimeters.
	Mapped []Fire
}

// MappedAcres sums the perimeter areas of the mapped fires.
func (s *Season) MappedAcres() float64 {
	var a float64
	for i := range s.Mapped {
		a += s.Mapped[i].Acres
	}
	return a
}

// SeasonConfig parameterizes one simulated season.
type SeasonConfig struct {
	Seed uint64
	Year int
	// TotalFires is the season's fire count (statistics only).
	TotalFires int
	// TotalAcres is the season's burned area target in acres.
	TotalAcres float64
	// MappedFires is the number of large fires to simulate perimeters
	// for. Defaults to 60.
	MappedFires int
	// Alpha is the power-law tail exponent. Defaults to 1.15.
	Alpha float64
	// ForcedIgnitions pins fires at specific geographic (lon/lat)
	// locations with fixed acre targets — used to reproduce the named
	// 2019 validation fires.
	ForcedIgnitions []ForcedIgnition
}

// mappedShare is the fraction of a season's TotalAcres attributed to
// the mapped large-fire tail: heavy-tailed size distributions put most
// burned area in the few largest fires.
const mappedShare = 0.85

// ForcedIgnition pins one fire of a season.
type ForcedIgnition struct {
	Name    string
	LonLat  geom.Point
	Acres   float64
	WindDeg float64
	// WindStrength overrides the default spread-anisotropy (0.9). Extreme
	// wind events (Santa Ana, Diablo) use 2.0+: the fire outruns the fuel
	// gradient and penetrates low-fuel urban fringes — how Saddle Ridge
	// and Tick burned into road corridors and suburbs.
	WindStrength float64
}

func (c SeasonConfig) withDefaults() SeasonConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MappedFires <= 0 {
		c.MappedFires = 60
	}
	if c.Alpha <= 0 {
		c.Alpha = 1.15
	}
	return c
}

// Simulator runs fire seasons over a world and its hazard model.
type Simulator struct {
	World  *conus.World
	Hazard *whp.Map
	// pool holds the world-grid cell ids (cy*NX+cx) of the candidate
	// ignition cells, and ignition draws a pool index in proportion to
	// each cell's hazard-and-human weight.
	pool     []int32
	ignition *rng.CategoricalTable
	// onBurn, when set, receives every grown fire with the burned mask
	// its perimeter was traced from. Tests set it on a copy of a
	// Simulator; it must be safe for concurrent seasons.
	onBurn func(f *Fire, burned *raster.BitGrid)
}

// NewSimulator prepares a simulator. The hazard map supplies the fuel
// model; its raster resolution does not constrain fire resolution.
//
// hazard must be built on the world grid (whp.Build(w, w.Grid, ...)):
// the ignition pool reads its Hazard raster and the world's StateZone
// cell by cell. One band per grid row (pipeline.Bands) counts the row's
// ignitable cells; the rows' counts place each row's slice of the pool
// and its weights, and a second pass of one band per row fills them.
// The pool is in row-major order at any GOMAXPROCS.
func NewSimulator(w *conus.World, hazard *whp.Map) *Simulator {
	s := &Simulator{World: w, Hazard: hazard}
	g := w.Grid
	zone, hz := w.StateZone.Data, hazard.Hazard.Data
	ignitable := func(c int) bool { return zone[c] != 0 && hz[c] > 0.05 }
	// rowStart[cy] is where row cy's cells start in the pool, once the
	// per-row counts are summed.
	rowStart := make([]int, g.NY+1)
	pipeline.Bands(pipeline.BandFunc(func(_, lo, hi int) {
		for cy := lo; cy < hi; cy++ {
			n := 0
			for c := cy * g.NX; c < (cy+1)*g.NX; c++ {
				if ignitable(c) {
					n++
				}
			}
			rowStart[cy+1] = n
		}
	}), g.NY, g.NY)
	for cy := 0; cy < g.NY; cy++ {
		rowStart[cy+1] += rowStart[cy]
	}
	s.pool = make([]int32, rowStart[g.NY])
	weights := make([]float64, rowStart[g.NY])
	pipeline.Bands(pipeline.BandFunc(func(_, lo, hi int) {
		for cy := lo; cy < hi; cy++ {
			i := rowStart[cy]
			for cx := 0; cx < g.NX; cx++ {
				c := cy*g.NX + cx
				if !ignitable(c) {
					continue
				}
				p, h := g.Center(cx, cy), hz[c]
				s.pool[i] = int32(c)
				// Ignition density rises superlinearly with hazard (dry,
				// fuel-rich regions both ignite and escape containment
				// more often) and with proximity to human activity: §2.1
				// of the paper names power-line sparks, campfires and
				// equipment as the dominant ignition sources, which is
				// why escaped fires disproportionately start at the
				// wildland-urban interface and along transportation
				// corridors (Saddle Ridge ignited under a transmission
				// tower beside a freeway).
				human := 0.25 + math.Min(3*w.UrbanAt(p), 1.0) + math.Exp(-w.RoadDistAt(p)/15000)
				weights[i] = h * h * human
				i++
			}
		}
	}), g.NY, g.NY)
	s.ignition = rng.NewCategorical(weights)
	return s
}

// Season simulates one fire year.
func (s *Simulator) Season(cfg SeasonConfig) *Season {
	cfg = cfg.withDefaults()
	src := rng.NewStream(cfg.Seed, uint64(cfg.Year)*0xF17E+1)

	season := &Season{Year: cfg.Year, TotalFires: cfg.TotalFires, TotalAcres: cfg.TotalAcres}

	// Draw tail sizes and rescale to the mapped-share target.
	n := cfg.MappedFires
	sizes := make([]float64, n)
	var sum float64
	for i := range sizes {
		sizes[i] = src.TruncatedPareto(300, 400000, cfg.Alpha)
		sum += sizes[i]
	}
	target := cfg.TotalAcres * mappedShare
	if sum > 0 {
		k := target / sum
		for i := range sizes {
			sizes[i] *= k
		}
	}

	r := s.newRace()
	id := 0
	for _, fi := range cfg.ForcedIgnitions {
		ws := fi.WindStrength
		if ws <= 0 {
			ws = defaultWindStrength
		}
		f := s.growFireWind(r, src, fi.Name, cfg.Year, s.World.ToXY(fi.LonLat), fi.Acres, fi.WindDeg, ws, id)
		if f != nil {
			season.Mapped = append(season.Mapped, *f)
			id++
		}
	}
	for _, acres := range sizes {
		if len(s.pool) == 0 {
			break
		}
		g := s.World.Grid
		c := int(s.pool[s.ignition.Sample(src)])
		ign := g.Center(c%g.NX, c/g.NX)
		// Jitter inside the coarse cell.
		cell := g.CellSize
		ign = geom.Point{
			X: ign.X + src.Range(-cell/2, cell/2),
			Y: ign.Y + src.Range(-cell/2, cell/2),
		}
		wind := src.Range(0, 360)
		name := fmt.Sprintf("%s-%d", fireNames[id%len(fireNames)], cfg.Year)
		f := s.growFire(r, src, name, cfg.Year, ign, acres, wind, id)
		if f != nil {
			season.Mapped = append(season.Mapped, *f)
			id++
		}
	}
	return season
}

// frontierItem is a window cell in the ignition race.
type frontierItem struct {
	time   float64
	cx, cy int32
}

// frontierHeap is the race's min-queue on arrival time: a radix heap
// over the bits of the times. The race never pushes a time below the
// last one popped (a delay is never negative), and the bits of
// non-negative floats order as the floats do, so an item sits in bucket
// b when its bits first differ from the last popped time's at bit b-1.
// A push is an append. A pop that finds bucket 0 empty takes the least
// nonempty bucket's minimum as the last popped time and moves the
// bucket's items into lower buckets, the minimum into bucket 0; items
// only ever move down. A pop returns the exact minimum, and arrival
// times are sums of continuous draws, which tie with probability zero,
// so the race burns cells in the order any exact min-queue gives:
// TestGrowFireConformance checks it against the binary heap this
// replaced.
type frontierHeap struct {
	last     uint64             // the bits of the last popped time
	bucket   [64][]frontierItem // a time's sign bit is 0, so b < 64
	nonempty uint64             // bit b is set when bucket b holds items
}

// reset empties h, keeping its storage.
func (h *frontierHeap) reset() {
	for m := h.nonempty; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		h.bucket[b] = h.bucket[b][:0]
	}
	h.last, h.nonempty = 0, 0
}

func (h *frontierHeap) push(it frontierItem) {
	b := bits.Len64(math.Float64bits(it.time) ^ h.last)
	h.bucket[b] = append(h.bucket[b], it)
	h.nonempty |= 1 << b
}

// pop removes and returns the item of least time; h must not be empty.
func (h *frontierHeap) pop() frontierItem {
	if b := bits.TrailingZeros64(h.nonempty); b > 0 {
		items := h.bucket[b]
		least := math.Float64bits(items[0].time)
		for _, it := range items[1:] {
			least = min(least, math.Float64bits(it.time))
		}
		h.last = least
		h.bucket[b] = items[:0]
		h.nonempty &^= 1 << b
		for _, it := range items {
			h.push(it) // into a bucket below b
		}
	}
	items := h.bucket[0]
	it := items[len(items)-1]
	h.bucket[0] = items[:len(items)-1]
	if len(items) == 1 {
		h.nonempty &^= 1
	}
	return it
}

// defaultWindStrength is the spread anisotropy of ordinary fire weather.
const defaultWindStrength = 0.9

// growFire burns a single fire to its target size under ordinary wind.
func (s *Simulator) growFire(r *race, src *rng.Source, name string, year int,
	ign geom.Point, targetAcres, windDeg float64, id int) *Fire {
	return s.growFireWind(r, src, name, year, ign, targetAcres, windDeg, defaultWindStrength, id)
}

// growFireWind burns a single fire to its target size with r and returns
// it, or nil when the ignition point carries no fuel at all.
func (s *Simulator) growFireWind(r *race, src *rng.Source, name string, year int,
	ign geom.Point, targetAcres, windDeg, windStrength float64, id int) *Fire {

	burned, nBurned, nonburnableBurned := s.burn(r, src, ign, targetAcres, windDeg, windStrength)
	if nBurned == 0 {
		return nil
	}

	mp := raster.TraceContours(burned)
	acres := geom.Acres(mp.Area())
	start := 120 + src.Intn(150) // fire season day-of-year
	duration := 2 + int(math.Sqrt(acres)/8)
	state := s.World.StateAt(ign)
	f := &Fire{
		ID:           id,
		Name:         name,
		Year:         year,
		StartDay:     start,
		EndDay:       start + duration,
		Acres:        acres,
		Ignition:     ign,
		Perimeter:    mp,
		StateIdx:     state,
		RoadCorridor: float64(nonburnableBurned)/float64(nBurned) > 0.06,
		WindDeg:      windDeg,
		cells:        cropCells(burned),
	}
	if s.onBurn != nil {
		s.onBurn(f, burned)
	}
	return f
}

// Window cell states of the ignition race. A cell's fuel is evaluated
// when the race first reaches it, and a fueled cell is queued at once
// with that first delay, which it keeps: every later draw aimed at it
// is discarded.
const (
	cellUntouched      uint8 = iota // fuel not yet evaluated
	cellNoFuel                      // fuel <= 0, or off the window: never burns
	cellQueued                      // in the race
	cellQueuedCorridor              // in the race, with corridor fuel
)

// corridorFuel is the fuel at or below which a burned cell counts as a
// nonburnable corridor cell (whp.Evaluator.FuelAt gives roads and urban
// cores 0.03).
const corridorFuel = 0.04

// fuelState is the race state of a cell with fuel f once reached.
func fuelState(f float64) uint8 {
	switch {
	case f <= 0:
		return cellNoFuel
	case f <= corridorFuel:
		return cellQueuedCorridor
	default:
		return cellQueued
	}
}

// raceSteps are the 8 neighbor offsets in the order the race draws
// their delays.
var raceSteps = [8][2]int{{-1, -1}, {0, -1}, {1, -1}, {-1, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}}

// A race is what a season's fires share: the fuel evaluator, which
// each fire binds to its window, and the storage of the race's cell
// states and frontier. The states cover the window and a one-cell
// border of cellNoFuel around it, so a cell's neighbours are fixed
// offsets from its state index and the border stops the race at the
// window's edge: an off-window neighbour consumes no draw.
type race struct {
	fuel  *whp.Evaluator
	state []uint8
	front frontierHeap
}

func (s *Simulator) newRace() *race {
	return &race{fuel: s.Hazard.Evaluator(raster.Geometry{})}
}

// burn runs the ignition race for one fire with r over a local window
// sized to its target and returns the burned cells, their count, and how
// many of them hold corridor fuel. The mask is nil and the counts 0 when
// the ignition cell has no fuel.
func (s *Simulator) burn(r *race, src *rng.Source, ign geom.Point,
	targetAcres, windDeg, windStrength float64) (burned *raster.BitGrid, nBurned, nonburnableBurned int) {

	if targetAcres < 1 {
		targetAcres = 1
	}
	targetM2 := targetAcres * geom.SquareMetersPerAcre

	// Local window: generous margin around the expected final radius,
	// asymmetric growth included.
	radius := math.Sqrt(targetM2/math.Pi) * 3.5
	cellSize := clampF(math.Sqrt(targetM2)/45, 90, 2500)
	g := raster.NewGeometry(geom.BBox{
		MinX: ign.X - radius, MinY: ign.Y - radius,
		MaxX: ign.X + radius, MaxY: ign.Y + radius,
	}, cellSize)
	targetCells := int(targetM2/g.CellArea()) + 1

	// Per-direction step lengths and wind multipliers: spreading
	// downwind is faster.
	windRad := windDeg * math.Pi / 180
	wx, wy := math.Cos(windRad), math.Sin(windRad)
	var norm, windMul [8]float64
	for d, st := range raceSteps {
		dx, dy := st[0], st[1]
		norm[d] = math.Sqrt(float64(dx*dx + dy*dy))
		align := (float64(dx)*wx + float64(dy)*wy) / norm[d]
		windMul[d] = math.Exp(windStrength * align)
	}

	cx0, cy0, ok := g.CellOf(ign)
	if !ok {
		return nil, 0, 0
	}
	// Each window cell's fuel is evaluated at most once, when the race
	// first reaches it.
	fuel := r.fuel
	fuel.Reset(g)
	state := r.resetState(g)
	pw := g.NX + 2
	var off [8]int
	for d, st := range raceSteps {
		off[d] = st[1]*pw + st[0]
	}
	i0 := (cy0+1)*pw + cx0 + 1
	if state[i0] = fuelState(fuel.FuelAt(cx0, cy0)); state[i0] == cellNoFuel {
		return nil, 0, 0
	}

	burned = raster.NewBitGrid(g)
	h := &r.front
	h.reset()
	h.push(frontierItem{time: 0, cx: int32(cx0), cy: int32(cy0)})
	for h.nonempty != 0 && nBurned < targetCells {
		it := h.pop()
		cx, cy := int(it.cx), int(it.cy)
		i := (cy+1)*pw + cx + 1
		burned.Set(cx, cy, true)
		nBurned++
		if state[i] == cellQueuedCorridor {
			nonburnableBurned++
		}
		// Race the 8 neighbors.
		for d, o := range off {
			ni := i + o
			switch state[ni] {
			case cellNoFuel:
				continue
			case cellQueued, cellQueuedCorridor:
				// An earlier arrival already holds this cell, so its
				// delay could never win: step past the one uniform
				// Exponential would draw without computing it.
				src.SkipFloat64()
				continue
			}
			ncx, ncy := cx+raceSteps[d][0], cy+raceSteps[d][1]
			nf := fuel.FuelAt(ncx, ncy)
			if state[ni] = fuelState(nf); state[ni] == cellNoFuel {
				continue // ocean: never burns
			}
			rate := nf * windMul[d]
			dt := src.Exponential(1/rate) * norm[d]
			h.push(frontierItem{time: it.time + dt, cx: int32(ncx), cy: int32(ncy)})
		}
	}
	return burned, nBurned, nonburnableBurned
}

// resetState returns r's cell states for window g: every window cell
// untouched, the border around it cellNoFuel.
func (r *race) resetState(g raster.Geometry) []uint8 {
	pw, ph := g.NX+2, g.NY+2
	if cap(r.state) < pw*ph {
		r.state = make([]uint8, pw*ph)
	}
	state := r.state[:pw*ph]
	clear(state)
	for x := range pw {
		state[x] = cellNoFuel
		state[(ph-1)*pw+x] = cellNoFuel
	}
	for y := 1; y < ph-1; y++ {
		state[y*pw] = cellNoFuel
		state[y*pw+pw-1] = cellNoFuel
	}
	return state
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// fireNames provides deterministic synthetic incident names.
var fireNames = []string{
	"Alder", "Basin", "Cedar", "Dome", "Eagle", "Flint", "Granite", "Hawk",
	"Iron", "Juniper", "Klamath", "Lodge", "Mesa", "Needle", "Onyx", "Pine",
	"Quartz", "Ridge", "Sage", "Talon", "Umber", "Vista", "Willow", "Yucca",
	"Zephyr", "Bear", "Canyon", "Delta", "Ember", "Fox",
}
