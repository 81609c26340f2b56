// Package conus assembles the synthetic "digital conterminous US" that all
// generators and analyses share: a projected raster frame (CONUS Albers), a
// state-zone raster (weighted-Voronoi regions around real state centroids
// clipped to a coarse CONUS outline), an urban-intensity field anchored at
// real city locations, and a highway network connecting the gazetteer
// cities.
//
// The world is deterministic in its configuration: the same Config always
// produces the identical World. See DESIGN.md for why this substitution for
// TIGER/Census geometry preserves the analyses' behaviour.
package conus

import (
	"math"
	"math/bits"
	"slices"

	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
	"fivealarms/internal/noise"
	"fivealarms/internal/pipeline"
	"fivealarms/internal/proj"
	"fivealarms/internal/raster"
)

// Config parameterizes world construction.
type Config struct {
	// Seed drives the noise fields. Defaults to 1 when zero (so the zero
	// Config is usable).
	Seed uint64
	// CellSizeM is the edge length of the world raster cells in meters.
	// Defaults to 5000 m. The USFS WHP ships at 270 m; smaller cells cost
	// proportionally more memory and time.
	CellSizeM float64
}

// roadNeighbors is how many nearest cities each city connects to in the
// synthetic highway graph.
const roadNeighbors = 3

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CellSizeM <= 0 {
		c.CellSizeM = 5000
	}
	return c
}

// City is a gazetteer city with its projected position.
type City struct {
	geodata.City
	XY       geom.Point // projected (Albers) position
	SigmaM   float64    // urban gaussian radius in meters
	StateIdx int        // index into geodata.States
}

// World is the shared geospatial substrate.
type World struct {
	Cfg  Config
	Proj *proj.Albers
	Grid raster.Geometry

	// Inside marks cells within the CONUS outline.
	Inside *raster.BitGrid
	// StateZone holds stateIdx+1 per cell; 0 = outside CONUS.
	StateZone *raster.ClassGrid
	// Urban is the summed city gaussian intensity (unitless, ~0..2).
	Urban *raster.FloatGrid
	// Roads marks highway-corridor cells.
	Roads *raster.BitGrid
	// RoadDist is the distance in meters from each cell to the nearest
	// highway cell.
	RoadDist *raster.FloatGrid

	Cities []City

	outline   geom.Polygon // projected outline
	noiseFld  *noise.Field
	statesXY  []geom.Point  // projected state centroids
	stateWt   []float64     // sqrt(area) weights for the weighted Voronoi
	cityByIdx map[int][]int // state index -> city indices

	// Road centerlines and, per cell, the segments RoadDistAt and
	// NearestRoadPoint measure, so RoadDistAt can return exact sub-cell
	// distances near corridors. A cell's own bucket lists, in segment
	// order, the segments rasterized through its 3x3 neighbourhood. A
	// ring cell has no own bucket but lies within 2.5 cells of a road
	// cell in the raster distance; ring lists the deduplicated union of
	// its 5x5 neighbourhood's own buckets.
	roadSegs []roadSegment
	own      cellLists
	ring     cellLists
}

type roadSegment struct{ a, b geom.Point }

// Build constructs the world for cfg. Construction cost is dominated by
// the raster size (1703x1057 = 1,800,071 cells at 2.7 km, 920x571 =
// 525,320 at 5 km).
func Build(cfg Config) *World {
	cfg = cfg.withDefaults()
	w := &World{
		Cfg:      cfg,
		Proj:     proj.ConusAlbers(),
		noiseFld: noise.New(cfg.Seed),
	}

	// Project the outline.
	ring := make(geom.Ring, len(geodata.ConusOutline))
	for i, v := range geodata.ConusOutline {
		ring[i] = w.Proj.Forward(geom.Point{X: v.Lon, Y: v.Lat})
	}
	if !ring.IsCCW() {
		ring = ring.Reverse()
	}
	w.outline = geom.NewPolygon(ring)

	w.Grid = raster.NewGeometry(w.outline.BBox(), cfg.CellSizeM)
	w.Inside = raster.FillPolygon(w.Grid, w.outline)

	// Projected state centroids and Voronoi weights.
	w.statesXY = make([]geom.Point, len(geodata.States))
	w.stateWt = make([]float64, len(geodata.States))
	for i, s := range geodata.States {
		w.statesXY[i] = w.Proj.Forward(geom.Point{X: s.Lon, Y: s.Lat})
		w.stateWt[i] = math.Sqrt(s.AreaKM2)
	}
	w.buildStateZones()
	w.buildCities()
	w.buildUrbanField()
	w.buildRoads()
	return w
}

// zoneTile is the edge, in cells, of the square tiles over which
// buildStateZones prunes the state seeds.
const zoneTile = 16

// buildStateZones assigns each inside cell to the state minimizing
// dist/weight (multiplicatively weighted Voronoi), which yields zone areas
// roughly proportional to real state areas. Each tile scans only the
// states that can win one of its cell centres, in state order, so every
// cell gets the state a scan of all of them would give. Tile rows fan
// out as one band each (pipeline.Bands); their tiles write disjoint
// cells.
func (w *World) buildStateZones() {
	g := w.Grid
	w.StateZone = raster.NewClassGrid(g)
	tileRows := (g.NY + zoneTile - 1) / zoneTile
	pipeline.Bands(pipeline.BandFunc(func(_, lo, hi int) {
		var cand []int
		for ty := lo * zoneTile; ty < hi*zoneTile; ty += zoneTile {
			for tx := 0; tx < g.NX; tx += zoneTile {
				x1, y1 := min(tx+zoneTile, g.NX), min(ty+zoneTile, g.NY)
				centres := geom.NewBBox(g.Center(tx, ty), g.Center(x1-1, y1-1)).Buffer(1)
				cand = geom.WeightedVoronoiCandidates(cand[:0], centres, w.statesXY, w.stateWt)
				for cy := ty; cy < y1; cy++ {
					for cx := tx; cx < x1; cx++ {
						if !w.Inside.Get(cx, cy) {
							continue
						}
						p := g.Center(cx, cy)
						best := -1
						bestD := math.Inf(1)
						for _, i := range cand {
							c := w.statesXY[i]
							dx := p.X - c.X
							dy := p.Y - c.Y
							d := math.Sqrt(dx*dx+dy*dy) / w.stateWt[i]
							if d < bestD {
								bestD = d
								best = i
							}
						}
						w.StateZone.Set(cx, cy, uint8(best+1))
					}
				}
			}
		}
	}), tileRows, tileRows)
}

func (w *World) buildCities() {
	w.Cities = make([]City, 0, len(geodata.Cities))
	w.cityByIdx = map[int][]int{}
	for _, c := range geodata.Cities {
		xy := w.Proj.Forward(geom.Point{X: c.Lon, Y: c.Lat})
		si := geodata.StateIndex(c.State)
		// Urban radius grows with the square root of metro population:
		// ~8 km sigma per sqrt(million people).
		sigma := 8000 * math.Sqrt(float64(c.MetroPop)/1e6)
		w.cityByIdx[si] = append(w.cityByIdx[si], len(w.Cities))
		w.Cities = append(w.Cities, City{City: c, XY: xy, SigmaM: sigma, StateIdx: si})
	}
}

func (w *World) buildUrbanField() {
	w.Urban = raster.NewFloatGrid(w.Grid)
	for _, c := range w.Cities {
		// Add the gaussian within 4 sigma.
		r := 4 * c.SigmaM
		cx0, cy0, _ := w.Grid.CellOf(geom.Point{X: c.XY.X - r, Y: c.XY.Y - r})
		cx1, cy1, _ := w.Grid.CellOf(geom.Point{X: c.XY.X + r, Y: c.XY.Y + r})
		cx0 = clamp(cx0, 0, w.Grid.NX-1)
		cx1 = clamp(cx1, 0, w.Grid.NX-1)
		cy0 = clamp(cy0, 0, w.Grid.NY-1)
		cy1 = clamp(cy1, 0, w.Grid.NY-1)
		// Super-gaussian kernel: a flat built-up core with a sharp edge,
		// the actual footprint shape of US metros (development stops
		// abruptly at terrain and zoning boundaries). A plain gaussian's
		// long tail would suppress wildland hazard for tens of km beyond
		// the real urban edge.
		invR := 1 / (1.4 * c.SigmaM)
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				p := w.Grid.Center(cx, cy)
				dx := (p.X - c.XY.X) * invR
				dy := (p.Y - c.XY.Y) * invR
				r2 := dx*dx + dy*dy
				g := math.Exp(-r2 * r2)
				if g > 1e-4 {
					w.Urban.Set(cx, cy, w.Urban.At(cx, cy)+g)
				}
			}
		}
	}
}

// buildRoads connects each city to its roadNeighbors nearest cities,
// rasterizes the segments and indexes them by cell.
func (w *World) buildRoads() {
	w.Roads = raster.NewBitGrid(w.Grid)
	bk := &buckets{mark: make([]uint64, (w.Grid.Cells()+63)/64)}
	type edge struct{ a, b int }
	seen := map[edge]bool{}
	k := roadNeighbors
	for i := range w.Cities {
		// Find k nearest.
		type nd struct {
			j int
			d float64
		}
		nearest := make([]nd, 0, len(w.Cities))
		for j := range w.Cities {
			if j == i {
				continue
			}
			nearest = append(nearest, nd{j, w.Cities[i].XY.DistanceTo(w.Cities[j].XY)})
		}
		// Partial selection sort for k smallest.
		for s := 0; s < k && s < len(nearest); s++ {
			m := s
			for t := s + 1; t < len(nearest); t++ {
				if nearest[t].d < nearest[m].d {
					m = t
				}
			}
			nearest[s], nearest[m] = nearest[m], nearest[s]
			j := nearest[s].j
			e := edge{min(i, j), max(i, j)}
			if !seen[e] {
				seen[e] = true
				w.rasterizeSegment(bk, w.Cities[i].XY, w.Cities[j].XY)
			}
		}
	}
	w.RoadDist = raster.DistanceTransform(w.Roads)
	w.own = newCellLists(w.Grid.Cells(), bk.cells, bk.segs)
	w.ring = w.ringLists()
}

// buckets collects the own buckets as (cell, segment) pairs, segment by
// segment.
type buckets struct {
	cells, segs []int32
	// mark holds the cells the segment being rasterized has bucketed.
	mark []uint64
}

// rasterizeSegment marks the cells along segment ab (grid Bresenham via
// uniform stepping at half-cell resolution), records the centerline, and
// buckets the segment under every cell it touches plus their neighbors
// for exact-distance queries.
func (w *World) rasterizeSegment(bk *buckets, a, b geom.Point) {
	segIdx := int32(len(w.roadSegs))
	w.roadSegs = append(w.roadSegs, roadSegment{a: a, b: b})
	first := len(bk.cells)
	d := b.Sub(a)
	steps := int(d.Norm()/(w.Grid.CellSize/2)) + 1
	last := int32(-1)
	for s := 0; s <= steps; s++ {
		f := float64(s) / float64(steps)
		p := a.Add(d.Scale(f))
		if cx, cy, ok := w.Grid.CellOf(p); ok {
			w.Roads.Set(cx, cy, true)
			idx := int32(cy*w.Grid.NX + cx)
			if idx != last {
				w.bucketSegment(bk, cx, cy, segIdx)
				last = idx
			}
		}
	}
	for _, c := range bk.cells[first:] {
		bk.mark[c>>6] &^= 1 << (c & 63)
	}
}

// bucketSegment registers seg under the 3x3 neighborhood of (cx, cy),
// once per cell.
func (w *World) bucketSegment(bk *buckets, cx, cy int, seg int32) {
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			nx, ny := cx+dx, cy+dy
			if nx < 0 || ny < 0 || nx >= w.Grid.NX || ny >= w.Grid.NY {
				continue
			}
			key := int32(ny*w.Grid.NX + nx)
			if bk.mark[key>>6]&(1<<(key&63)) != 0 {
				continue
			}
			bk.mark[key>>6] |= 1 << (key & 63)
			bk.cells = append(bk.cells, key)
			bk.segs = append(bk.segs, seg)
		}
	}
}

// ringLists indexes the ring cells: every cell without an own bucket
// whose raster road distance RoadDistAt does not return outright lists
// the distinct segments of its 5x5 neighbourhood's own buckets, in the
// order of their first listing. Such a distance is at most 2.5 cells, so
// the nearest road cell is at most 2 cells away along each axis: only
// the 5x5 neighbourhoods of the road cells are visited, each cell once
// and in cell order.
func (w *World) ringLists() cellLists {
	g := w.Grid
	lim := 2.5 * g.CellSize
	near := make([]uint64, (g.Cells()+63)/64)
	w.Roads.ForEachSetRun(func(cy, cx0, cx1 int) {
		for ny := max(cy-2, 0); ny <= min(cy+2, g.NY-1); ny++ {
			for nx := max(cx0-2, 0); nx <= min(cx1+2, g.NX-1); nx++ {
				c := ny*g.NX + nx
				near[c>>6] |= 1 << (c & 63)
			}
		}
	})
	var cells, segs []int32
	// seen[s] is 1 + the last ring cell that listed segment s, so a
	// repeat within a cell's neighbourhood is dropped without a scan.
	seen := make([]int32, len(w.roadSegs))
	for wi, word := range near {
		for ; word != 0; word &= word - 1 {
			c := wi<<6 + bits.TrailingZeros64(word)
			if w.RoadDist.Data[c] > lim || w.own.has(c) {
				continue
			}
			cx, cy := c%g.NX, c/g.NX
			for ny := max(cy-2, 0); ny <= min(cy+2, g.NY-1); ny++ {
				for nx := max(cx-2, 0); nx <= min(cx+2, g.NX-1); nx++ {
					for _, s := range w.own.list(ny*g.NX + nx) {
						if seen[s] != int32(c)+1 {
							seen[s] = int32(c) + 1
							cells = append(cells, int32(c))
							segs = append(segs, s)
						}
					}
				}
			}
		}
	}
	return newCellLists(g.Cells(), cells, segs)
}

// cellLists maps grid cells to lists of segment ids in compressed
// sparse row form. Only the cells with a list take a row: set marks
// them, rank counts the set bits before each word of set, and cell c's
// row is its rank among the set cells. Row r lists
// ids[off[r]:off[r+1]].
type cellLists struct {
	set  []uint64
	rank []int32
	off  []int32
	ids  []int32
}

// newCellLists indexes the pairs (cells[k], ids[k]) of a grid of n
// cells. Each cell's list keeps its pairs' order.
func newCellLists(n int, cells, ids []int32) cellLists {
	words := (n + 63) / 64
	l := cellLists{set: make([]uint64, words), rank: make([]int32, words)}
	for _, c := range cells {
		l.set[c>>6] |= 1 << (c & 63)
	}
	var rows int32
	for i, word := range l.set {
		l.rank[i] = rows
		rows += int32(bits.OnesCount64(word))
	}
	// Count each row's pairs into off[row+1], sum them into starts, fill
	// the rows advancing off[row] to the row's end, then shift the ends
	// back into starts.
	l.off = make([]int32, rows+1)
	for _, c := range cells {
		l.off[l.row(int(c))+1]++
	}
	for r := 1; r <= int(rows); r++ {
		l.off[r] += l.off[r-1]
	}
	l.ids = make([]int32, len(ids))
	for k, c := range cells {
		r := l.row(int(c))
		l.ids[l.off[r]] = ids[k]
		l.off[r]++
	}
	copy(l.off[1:], l.off[:rows])
	l.off[0] = 0
	return l
}

// row returns the row of a cell whose set bit is on.
func (l *cellLists) row(c int) int32 {
	return l.rank[c>>6] + int32(bits.OnesCount64(l.set[c>>6]&(1<<(c&63)-1)))
}

// has reports whether cell c has a list.
func (l *cellLists) has(c int) bool { return l.set[c>>6]&(1<<(c&63)) != 0 }

// list returns cell c's list, nil if it has none.
func (l *cellLists) list(c int) []int32 {
	if !l.has(c) {
		return nil
	}
	r := l.row(c)
	return l.ids[l.off[r]:l.off[r+1]]
}

// StateAt returns the geodata.States index of the state containing the
// projected point, or -1 outside the CONUS.
func (w *World) StateAt(p geom.Point) int {
	v, ok := w.StateZone.Sample(p)
	if !ok || v == 0 {
		return -1
	}
	return int(v) - 1
}

// CellsByState returns, per geodata.States index, the centres of the
// state's zone cells that mask marks (all of them when mask is nil), in
// row-major order. A counting pass sizes the lists, which share one
// backing array; both passes visit only the mask's set runs.
func (w *World) CellsByState(mask *raster.BitGrid) [][]geom.Point {
	if mask == nil {
		mask = w.Inside // every zone cell lies inside the outline
	}
	g := w.Grid
	zone := w.StateZone.Data
	// next[v] counts zone value v's cells, then becomes the write
	// cursor of its list in buf. Zone 0 is outside every state.
	next := make([]int, len(geodata.States)+1)
	mask.ForEachSetRun(func(cy, cx0, cx1 int) {
		for _, v := range zone[cy*g.NX+cx0 : cy*g.NX+cx1+1] {
			next[v]++
		}
	})
	next[0] = 0
	total := 0
	for v := 1; v < len(next); v++ {
		next[v], total = total, total+next[v]
	}
	buf := make([]geom.Point, total)
	mask.ForEachSetRun(func(cy, cx0, cx1 int) {
		y := g.RowY(cy)
		for cx := cx0; cx <= cx1; cx++ {
			if v := zone[cy*g.NX+cx]; v > 0 {
				buf[next[v]] = geom.Point{X: g.ColX(cx), Y: y}
				next[v]++
			}
		}
	})
	// Each cursor now stands where the next zone's list begins.
	out := make([][]geom.Point, len(geodata.States))
	for si := range out {
		out[si] = buf[next[si]:next[si+1]:next[si+1]]
	}
	return out
}

// Contains reports whether the projected point lies inside the CONUS
// outline raster.
func (w *World) Contains(p geom.Point) bool {
	cx, cy, ok := w.Grid.CellOf(p)
	return ok && w.Inside.Get(cx, cy)
}

// UrbanAt returns the urban intensity at a projected point (0 off-grid).
func (w *World) UrbanAt(p geom.Point) float64 {
	v, _ := w.Urban.Sample(p)
	return v
}

// RoadDistAt returns the distance in meters to the nearest highway
// centerline (+Inf off-grid). Near corridors the distance is exact
// (computed against the road segments), so fine-resolution WHP windows
// see true narrow corridors; far from roads the cheap raster
// distance-transform value is returned — accurate to within a cell, which
// is all "far" callers need.
func (w *World) RoadDistAt(p geom.Point) float64 {
	cx, cy, ok := w.Grid.CellOf(p)
	if !ok {
		return math.Inf(1)
	}
	return w.RoadDistIn(cy*w.Grid.NX+cx, p)
}

// RoadDistIn is RoadDistAt for a point p that lies in world cell c
// (cy*NX + cx), for callers that have already located it.
func (w *World) RoadDistIn(c int, p geom.Point) float64 {
	v := w.RoadDist.Data[c]
	if v > 2.5*w.Grid.CellSize {
		return v
	}
	// The 3x3 buckets around each road cell guarantee any point within
	// ~1.5 cells of a centerline sees its segment in its own bucket. A
	// point 1.5-2.5 cells out has none and measures its ring list, the
	// segments of the wider 5x5 neighbourhood, before falling back to
	// the raster value.
	segs := w.own.list(c)
	if len(segs) == 0 {
		segs = w.ring.list(c)
	}
	best := math.Inf(1)
	for _, si := range segs {
		s := w.roadSegs[si]
		if d := geom.DistancePointSegment(p, s.a, s.b); d < best {
			best = d
		}
	}
	if math.IsInf(best, 1) {
		return v
	}
	return best
}

// NearestRoadPoint returns the closest point on a road centerline within
// roughly two cells of p, and whether one exists. Used to snap
// road-corridor infrastructure onto the roadway itself.
func (w *World) NearestRoadPoint(p geom.Point) (geom.Point, bool) {
	cx, cy, ok := w.Grid.CellOf(p)
	if !ok {
		return geom.Point{}, false
	}
	g := w.Grid
	best := math.Inf(1)
	var bestPt geom.Point
	// Neighbouring buckets repeat segments. A repeat measures the same
	// distance as its first listing, so it can never win the strict
	// minimum: each distinct segment is measured once.
	var seenBuf [16]int32
	seen := seenBuf[:0]
	for ny := max(cy-2, 0); ny <= min(cy+2, g.NY-1); ny++ {
		for nx := max(cx-2, 0); nx <= min(cx+2, g.NX-1); nx++ {
			for _, si := range w.own.list(ny*g.NX + nx) {
				if slices.Contains(seen, si) {
					continue
				}
				seen = append(seen, si)
				s := w.roadSegs[si]
				q := closestOnSegment(p, s.a, s.b)
				if d := p.DistanceTo(q); d < best {
					best = d
					bestPt = q
				}
			}
		}
	}
	return bestPt, !math.IsInf(best, 1)
}

// closestOnSegment projects p onto segment ab, clamped to the endpoints.
func closestOnSegment(p, a, b geom.Point) geom.Point {
	ab := b.Sub(a)
	l2 := ab.Dot(ab)
	if l2 == 0 {
		return a
	}
	t := p.Sub(a).Dot(ab) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return a.Add(ab.Scale(t))
}

// Noise exposes the world's seeded noise field (shared by the WHP model so
// hazard and fuel agree).
func (w *World) Noise() *noise.Field { return w.noiseFld }

// CitiesOfState returns the indices into Cities for the given state index.
func (w *World) CitiesOfState(stateIdx int) []int { return w.cityByIdx[stateIdx] }

// ToXY projects a geographic (lon/lat) point into world coordinates.
func (w *World) ToXY(ll geom.Point) geom.Point { return w.Proj.Forward(ll) }

// ToLonLat unprojects world coordinates to geographic.
func (w *World) ToLonLat(xy geom.Point) geom.Point { return w.Proj.Inverse(xy) }

// StateCentroidXY returns the projected centroid of the i'th state.
func (w *World) StateCentroidXY(i int) geom.Point { return w.statesXY[i] }

// Outline returns the projected CONUS outline polygon.
func (w *World) Outline() geom.Polygon { return w.outline }

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
