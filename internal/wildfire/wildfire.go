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
// later arrival is consumed from the fire's stream without being
// computed.
package wildfire

import (
	"fmt"
	"math"
	"sync"

	"fivealarms/internal/conus"
	"fivealarms/internal/geom"
	"fivealarms/internal/pipeline"
	"fivealarms/internal/raster"
	"fivealarms/internal/rng"
	"fivealarms/internal/whp"
)

// Fire is one mapped wildfire with its perimeter.
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

	// prep lazily caches the prepared perimeter. It lives behind a
	// pointer so Fire values copy freely (Season.Mapped stores fires by
	// value); every copy shares the one cache.
	prep *firePrep
}

// firePrep holds the once-built prepared perimeter.
type firePrep struct {
	once sync.Once
	mp   *geom.PreparedMultiPolygon
}

// BBox returns the perimeter bounding box.
func (f *Fire) BBox() geom.BBox { return f.Perimeter.BBox() }

// PreparedPerimeter returns the containment-optimized form of the
// perimeter (see geom.PrepareMultiPolygon), built on first use and
// cached; concurrent callers share the one build. Fires assembled by
// hand (struct literals in tests or external decoders) have no cache
// slot and prepare on every call — still correct, just unmemoized.
func (f *Fire) PreparedPerimeter() *geom.PreparedMultiPolygon {
	if f.prep == nil {
		return geom.PrepareMultiPolygon(f.Perimeter)
	}
	f.prep.once.Do(func() { f.prep.mp = geom.PrepareMultiPolygon(f.Perimeter) })
	return f.prep.mp
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

// frontierItem is a cell in the ignition race.
type frontierItem struct {
	idx  int // cell index in the local window
	time float64
}

// frontierHeap is a hand-rolled min-heap on time. The sift order matches
// container/heap exactly (strict-less comparisons, left child on ties),
// but push/pop stay monomorphic: the container/heap interface boxes
// every item, which made the ignition race the single largest allocator
// in a cold study build (~1.2M boxed items).
type frontierHeap []frontierItem

func (h *frontierHeap) push(it frontierItem) {
	s := append(*h, it)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(s[i].time < s[parent].time) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *frontierHeap) pop() frontierItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].time < s[j].time {
			j = j2
		}
		if !(s[j].time < s[i].time) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
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
		prep:         &firePrep{},
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
	cellNoFuel                      // fuel <= 0: never burns
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
// states and frontier.
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
	if cap(r.state) < g.Cells() {
		r.state = make([]uint8, g.Cells())
	}
	state := r.state[:g.Cells()]
	clear(state)
	i0 := cy0*g.NX + cx0
	if state[i0] = fuelState(fuel.FuelAt(cx0, cy0)); state[i0] == cellNoFuel {
		return nil, 0, 0
	}

	burned = raster.NewBitGrid(g)
	h := r.front[:0]
	h.push(frontierItem{idx: i0, time: 0})
	for len(h) > 0 && nBurned < targetCells {
		it := h.pop()
		cy := it.idx / g.NX
		cx := it.idx % g.NX
		burned.Set(cx, cy, true)
		nBurned++
		if state[it.idx] == cellQueuedCorridor {
			nonburnableBurned++
		}
		// Race the 8 neighbors.
		for d, st := range raceSteps {
			ncx, ncy := cx+st[0], cy+st[1]
			if ncx < 0 || ncy < 0 || ncx >= g.NX || ncy >= g.NY {
				continue
			}
			ni := ncy*g.NX + ncx
			switch state[ni] {
			case cellNoFuel:
				continue
			case cellQueued, cellQueuedCorridor:
				// An earlier arrival already holds this cell, so its
				// delay could never win: consume the one uniform
				// Exponential would draw without computing it.
				src.Float64()
				continue
			}
			nf := fuel.FuelAt(ncx, ncy)
			if state[ni] = fuelState(nf); state[ni] == cellNoFuel {
				continue // ocean: never burns
			}
			rate := nf * windMul[d]
			dt := src.Exponential(1/rate) * norm[d]
			h.push(frontierItem{idx: ni, time: it.time + dt})
		}
	}
	r.front = h
	return burned, nBurned, nonburnableBurned
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
