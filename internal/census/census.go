// Package census synthesizes the county layer of the digital CONUS: every
// state is subdivided into Voronoi county zones around seeded county
// centers, with the largest real counties (geodata.BigCounties) pinned at
// their true locations and populations. County populations drive the
// paper's §3.6 impact analysis, which classifies counties into the
// moderately-dense / dense / very-dense bands.
package census

import (
	"math"

	"fivealarms/internal/conus"
	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
	"fivealarms/internal/rng"
)

// DensityClass is the paper's county population banding.
type DensityClass int

// Density classes. Rural counties (<200k people) are outside all three of
// the paper's bands.
const (
	PopRural     DensityClass = iota // < 200k
	PopModerate                      // 200k - 500k ("Pop M")
	PopDense                         // 500k - 1.5M ("Pop H")
	PopVeryDense                     // > 1.5M ("Pop VH")
)

// String implements fmt.Stringer.
func (d DensityClass) String() string {
	switch d {
	case PopRural:
		return "rural"
	case PopModerate:
		return "moderately-dense"
	case PopDense:
		return "dense"
	case PopVeryDense:
		return "very-dense"
	default:
		return "invalid"
	}
}

// Classify returns the density class for a county population.
func Classify(pop int) DensityClass {
	switch {
	case pop > 1500000:
		return PopVeryDense
	case pop > 500000:
		return PopDense
	case pop > 200000:
		return PopModerate
	default:
		return PopRural
	}
}

// County is one synthesized county.
type County struct {
	Name     string
	StateIdx int        // index into geodata.States
	Seed     geom.Point // projected Voronoi seed
	Pop      int
	Anchor   bool // pinned from geodata.BigCounties
	// weight scales the Voronoi influence: populous counties claim more
	// territory, mirroring how real western urban counties (Los Angeles,
	// San Bernardino) reach deep into adjacent wildland.
	weight float64
}

// Density returns the county's density class.
func (c County) Density() DensityClass { return Classify(c.Pop) }

// Counties is the synthesized national county layer.
type Counties struct {
	All []County
	// byState holds indices into All per state index.
	byState [][]int
	world   *conus.World

	// The CountyAt index over countyTile×countyTile-cell tiles of the
	// world grid. Tile t = (cy/countyTile)*tilesX + cx/countyTile owns
	// entries tileEnt[t]:tileEnt[t+1], one per state present among its
	// StateZone cells. Entry e holds that state's StateZone value
	// entZone[e] and lists, in byState order, the counties that can win
	// some point of the tile: cands[entCand[e]:entCand[e+1]].
	tilesX  int
	tileEnt []int32
	entZone []uint8
	entCand []int32
	cands   []int32
}

// countyTile is the edge, in cells, of the tiles of the CountyAt index.
const countyTile = 16

// Synthesize builds the county layer for the world. Deterministic in
// (world configuration, seed).
func Synthesize(w *conus.World, seed uint64) *Counties {
	src := rng.NewStream(seed, 0xC0)
	c := &Counties{world: w, byState: make([][]int, len(geodata.States))}

	// Grid cells by state for seeding random county centers.
	cellsByState := w.CellsByState(nil)
	g := w.Grid

	for si, st := range geodata.States {
		var anchors []geodata.BigCounty
		for _, bc := range geodata.BigCounties {
			if bc.State == st.Abbrev {
				anchors = append(anchors, bc)
			}
		}
		n := st.Counties
		// At coarse resolutions a state zone may have few cells; keep at
		// least one county per state plus room for anchors.
		if n < len(anchors)+1 {
			n = len(anchors) + 1
		}
		countyIdx := make([]int, 0, n)

		anchorPop := 0
		for _, bc := range anchors {
			countyIdx = append(countyIdx, len(c.All))
			c.All = append(c.All, County{
				Name:     bc.Name,
				StateIdx: si,
				Seed:     w.ToXY(geom.Point{X: bc.Lon, Y: bc.Lat}),
				Pop:      bc.Pop,
				Anchor:   true,
				weight:   countyWeight(bc.Pop),
			})
			anchorPop += bc.Pop
		}

		rest := n - len(anchors)
		cells := cellsByState[si]
		if len(cells) == 0 {
			// Degenerate zone (possible for DC at very coarse grids): seed
			// at the state centroid.
			cells = []geom.Point{w.StateCentroidXY(si)}
		}
		remaining := st.Pop - anchorPop
		if remaining < 0 {
			remaining = 0
		}
		// Zipf-distributed populations over the non-anchor counties,
		// capped below the very-dense threshold: every county above 1.5M
		// is a pinned anchor, so synthetic ones must stay under it.
		pops := zipfAllocate(remaining, rest, 1400000)
		for i := 0; i < rest; i++ {
			cell := cells[src.Intn(len(cells))]
			// Jitter inside the cell so seeds do not align to the grid.
			jx := src.Range(-g.CellSize/2, g.CellSize/2)
			jy := src.Range(-g.CellSize/2, g.CellSize/2)
			countyIdx = append(countyIdx, len(c.All))
			c.All = append(c.All, County{
				Name:     syntheticCountyName(st.Abbrev, i),
				StateIdx: si,
				Seed:     geom.Point{X: cell.X + jx, Y: cell.Y + jy},
				Pop:      pops[i],
				weight:   countyWeight(pops[i]),
			})
		}
		c.byState[si] = countyIdx
	}
	c.buildIndex()
	return c
}

// buildIndex prunes each state's counties against every tile it is
// present in. The tile rectangle is inflated by 1 m, which absorbs the
// rounding by which CellOf may place a point just outside its cell.
func (c *Counties) buildIndex() {
	w := c.world
	g := w.Grid
	seeds := make([][]geom.Point, len(c.byState))
	weights := make([][]float64, len(c.byState))
	for si, idx := range c.byState {
		for _, ci := range idx {
			seeds[si] = append(seeds[si], c.All[ci].Seed)
			weights[si] = append(weights[si], c.All[ci].weight)
		}
	}
	c.tilesX = (g.NX + countyTile - 1) / countyTile
	tilesY := (g.NY + countyTile - 1) / countyTile
	c.tileEnt = make([]int32, 1, c.tilesX*tilesY+1)
	c.entCand = []int32{0}
	present := make([]bool, len(c.byState))
	var keep []int
	for ty := 0; ty < tilesY; ty++ {
		for tx := 0; tx < c.tilesX; tx++ {
			x0, y0 := tx*countyTile, ty*countyTile
			x1, y1 := min(x0+countyTile, g.NX), min(y0+countyTile, g.NY)
			clear(present)
			for cy := y0; cy < y1; cy++ {
				for _, v := range w.StateZone.Data[cy*g.NX+x0 : cy*g.NX+x1] {
					if v > 0 {
						present[v-1] = true
					}
				}
			}
			tile := geom.BBox{
				MinX: g.MinX + float64(x0)*g.CellSize, MinY: g.MinY + float64(y0)*g.CellSize,
				MaxX: g.MinX + float64(x1)*g.CellSize, MaxY: g.MinY + float64(y1)*g.CellSize,
			}.Buffer(1)
			for si, ok := range present {
				if !ok {
					continue
				}
				keep = geom.WeightedVoronoiCandidates(keep[:0], tile, seeds[si], weights[si])
				for _, k := range keep {
					c.cands = append(c.cands, int32(c.byState[si][k]))
				}
				c.entZone = append(c.entZone, uint8(si+1))
				c.entCand = append(c.entCand, int32(len(c.cands)))
			}
			c.tileEnt = append(c.tileEnt, int32(len(c.entZone)))
		}
	}
}

// zipfAllocate splits total across n ranks with weights 1/(rank^1.05),
// capping any rank at cap and redistributing the clipped mass over the
// uncapped ranks. Returns n values summing to at most total.
func zipfAllocate(total, n, cap int) []int {
	out := make([]int, n)
	if n == 0 || total <= 0 {
		return out
	}
	weights := make([]float64, n)
	capped := make([]bool, n)
	left := total
	for pass := 0; pass < 4 && left > 0; pass++ {
		var wSum float64
		for i := range weights {
			if capped[i] {
				weights[i] = 0
				continue
			}
			weights[i] = 1 / math.Pow(float64(i+1), 1.05)
			wSum += weights[i]
		}
		if wSum == 0 {
			break
		}
		assigned := 0
		for i := range out {
			if capped[i] {
				continue
			}
			add := int(float64(left) * weights[i] / wSum)
			out[i] += add
			assigned += add
			if out[i] >= cap {
				assigned -= out[i] - cap
				out[i] = cap
				capped[i] = true
			}
		}
		left -= assigned
		if assigned == 0 {
			break
		}
	}
	return out
}

// syntheticCountyName labels generated counties deterministically.
func syntheticCountyName(state string, i int) string {
	return state + "-" + countyOrdinal(i)
}

func countyOrdinal(i int) string {
	// Base-26 letters: A, B, ..., Z, AA, AB...
	s := ""
	i++
	for i > 0 {
		i--
		s = string(rune('A'+i%26)) + s
		i /= 26
	}
	return s
}

// CountyAt returns the index into All of the county containing the
// projected point (nearest county seed within the point's state), or -1
// outside the CONUS. It scans the candidates that the index keeps for
// the point's tile and state, which hold the winner of a scan over every
// county of the state.
func (c *Counties) CountyAt(p geom.Point) int {
	g := c.world.Grid
	cx, cy, ok := g.CellOf(p)
	if !ok {
		return -1
	}
	zone := c.world.StateZone.Data[cy*g.NX+cx]
	if zone == 0 {
		return -1
	}
	e := c.tileEnt[(cy/countyTile)*c.tilesX+cx/countyTile]
	for c.entZone[e] != zone {
		e++
	}
	best := -1
	bestD := math.Inf(1)
	for _, ci := range c.cands[c.entCand[e]:c.entCand[e+1]] {
		d := c.All[ci].Seed.DistanceTo(p) / c.All[ci].weight
		if d < bestD {
			bestD = d
			best = int(ci)
		}
	}
	return best
}

// countyWeight computes the Voronoi influence weight from population.
func countyWeight(pop int) float64 {
	if pop < 50000 {
		pop = 50000
	}
	return math.Pow(float64(pop), 0.3)
}

// TotalPopulation sums all county populations.
func (c *Counties) TotalPopulation() int {
	t := 0
	for _, county := range c.All {
		t += county.Pop
	}
	return t
}
