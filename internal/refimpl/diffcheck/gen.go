package diffcheck

import (
	"fmt"
	"math"
	"math/rand"

	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
)

// Generators: every adversarial input family the differential drivers
// sweep. All of them are pure functions of the seed (math/rand with an
// explicit source — never the global generator), so a divergence
// reproduces from the seed alone.

// ContainmentCase is one generated point-in-polygon scenario.
type ContainmentCase struct {
	Desc   string
	Ring   geom.Ring
	Probes []geom.Point
}

// Rectilinear reports whether every edge of r (including the closing
// edge) is axis-aligned. On rectilinear rings both ray-cast forms are
// exact, so even on-boundary probes must agree bit for bit; on anything
// else the boundary carve-out applies.
func Rectilinear(r geom.Ring) bool {
	n := len(r)
	for i := 0; i < n; i++ {
		a, b := r[i], r[(i+1)%n]
		if a.X != b.X && a.Y != b.Y {
			return false
		}
	}
	return true
}

// starRing builds a simple star-shaped ring of n vertices around c with
// random radii (angles strictly increase, so it never self-intersects).
func starRing(rng *rand.Rand, c geom.Point, n int, scale float64) geom.Ring {
	r := make(geom.Ring, 0, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		rad := (1 + 9*rng.Float64()) * scale
		r = append(r, geom.Point{X: c.X + rad*math.Cos(a), Y: c.Y + rad*math.Sin(a)})
	}
	return r
}

// histogramRing builds a rectilinear simple polygon on the integer
// lattice: k unit-width columns of random positive integer height,
// traced counter-clockwise. Adjacent equal heights yield collinear
// vertices; height-1 columns yield the staircase degeneracies the
// scanline index has to survive.
func histogramRing(rng *rand.Rand, k int, offset geom.Point) geom.Ring {
	heights := make([]int, k)
	for i := range heights {
		heights[i] = 1 + rng.Intn(6)
	}
	r := geom.Ring{geom.Point{X: offset.X, Y: offset.Y}, geom.Point{X: offset.X + float64(k), Y: offset.Y}}
	for i := k - 1; i >= 0; i-- {
		top := offset.Y + float64(heights[i])
		r = append(r, geom.Point{X: offset.X + float64(i+1), Y: top})
		r = append(r, geom.Point{X: offset.X + float64(i), Y: top})
	}
	return r
}

// degenerateRing picks one of the shapes the naive predicate rejects or
// barely tolerates: empty, single vertex, two vertices, all-collinear,
// duplicated vertices, and a zero-area spike.
func degenerateRing(rng *rand.Rand) (geom.Ring, string) {
	switch rng.Intn(6) {
	case 0:
		return nil, "nil ring"
	case 1:
		return geom.Ring{geom.Pt(3, 4)}, "single vertex"
	case 2:
		return geom.Ring{geom.Pt(0, 0), geom.Pt(5, 5)}, "two vertices"
	case 3:
		return geom.Ring{geom.Pt(0, 0), geom.Pt(2, 2), geom.Pt(4, 4), geom.Pt(6, 6)}, "collinear"
	case 4:
		return geom.Ring{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4), geom.Pt(0, 4)}, "duplicate vertices"
	default:
		return geom.Ring{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(8, 0), geom.Pt(4, 0), geom.Pt(2, 3)}, "zero-area spike"
	}
}

// sharedVertexRing pinches a hexagon so one vertex appears twice — the
// shared-vertex topology GeoJSON perimeters produce when two lobes of a
// burn meet at a point.
func sharedVertexRing(c geom.Point, scale float64) geom.Ring {
	p := func(x, y float64) geom.Point { return geom.Point{X: c.X + x*scale, Y: c.Y + y*scale} }
	return geom.Ring{p(0, 0), p(2, 1), p(4, 0), p(4, 3), p(2, 1), p(0, 3)}
}

// containmentProbes builds the probe battery for a ring: uniform points
// in the buffered bbox, every vertex, every edge midpoint, near-vertex
// jitters and far-outside points.
func containmentProbes(rng *rand.Rand, r geom.Ring, n int) []geom.Point {
	bb := r.BBox()
	if bb.IsEmpty() {
		bb = geom.BBox{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}
	}
	bb = bb.Buffer(1 + bb.Width()*0.2)
	probes := make([]geom.Point, 0, n+3*len(r)+2)
	for i := 0; i < n; i++ {
		probes = append(probes, geom.Point{
			X: bb.MinX + rng.Float64()*bb.Width(),
			Y: bb.MinY + rng.Float64()*bb.Height(),
		})
	}
	scale := 1 + math.Max(math.Abs(bb.MaxX), math.Abs(bb.MaxY))
	for i, v := range r {
		probes = append(probes, v) // exactly on a vertex
		next := r[(i+1)%len(r)]
		probes = append(probes, geom.Point{X: (v.X + next.X) / 2, Y: (v.Y + next.Y) / 2}) // on an edge
		probes = append(probes, geom.Point{X: v.X + 1e-9*scale, Y: v.Y - 1e-9*scale})     // jittered
	}
	probes = append(probes,
		geom.Point{X: bb.MaxX + 1000*scale, Y: bb.MaxY + 1000*scale},
		geom.Point{X: bb.MinX - 1000*scale, Y: bb.MinY - 1000*scale})
	return probes
}

// GenContainmentCase derives one containment scenario from the seed,
// cycling through the ring families: smooth stars, rectilinear
// histograms, degenerate shapes, shared-vertex pinches, huge-coordinate
// and sub-epsilon rings.
func GenContainmentCase(seed int64) ContainmentCase {
	rng := rand.New(rand.NewSource(seed))
	var (
		ring geom.Ring
		desc string
	)
	switch seed % 6 {
	case 0:
		ring = starRing(rng, geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, 3+rng.Intn(50), 1)
		desc = "star"
	case 1:
		ring = histogramRing(rng, 2+rng.Intn(12), geom.Point{X: float64(rng.Intn(20)), Y: float64(rng.Intn(20))})
		desc = "rectilinear histogram"
	case 2:
		ring, desc = degenerateRing(rng)
	case 3:
		ring = sharedVertexRing(geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}, 1+rng.Float64()*4)
		desc = "shared vertex"
	case 4:
		ring = starRing(rng, geom.Point{X: 1e7 + rng.Float64()*1e6, Y: -2e7 + rng.Float64()*1e6}, 3+rng.Intn(30), 1e5)
		desc = "huge coordinates"
	default:
		ring = starRing(rng, geom.Point{X: rng.Float64(), Y: rng.Float64()}, 3+rng.Intn(20), 1e-9)
		desc = "sub-epsilon ring"
	}
	return ContainmentCase{
		Desc:   desc,
		Ring:   ring,
		Probes: containmentProbes(rng, ring, 150),
	}
}

// GenMultiPolygon derives a multipolygon from the seed: one to four
// members (smooth or rectilinear, optionally holed, possibly
// overlapping), with dedicated seeds for the empty multipolygon and a
// single huge member that swallows everything else.
func GenMultiPolygon(seed int64) (geom.MultiPolygon, string) {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	switch seed % 8 {
	case 6:
		return nil, "empty multipolygon"
	case 7:
		return geom.MultiPolygon{{Exterior: starRing(rng, geom.Point{X: 0, Y: 0}, 24, 1e6)}}, "huge polygon"
	}
	n := 1 + rng.Intn(4)
	m := make(geom.MultiPolygon, 0, n)
	for i := 0; i < n; i++ {
		c := geom.Point{X: rng.Float64() * 60, Y: rng.Float64() * 60}
		var pg geom.Polygon
		if rng.Intn(2) == 0 {
			pg.Exterior = starRing(rng, c, 6+rng.Intn(20), 1+rng.Float64()*2)
		} else {
			pg.Exterior = histogramRing(rng, 2+rng.Intn(8), geom.Point{X: math.Floor(c.X), Y: math.Floor(c.Y)})
		}
		if rng.Intn(3) == 0 {
			// A hole strictly inside: shrink toward the centroid.
			cen := pg.Exterior.Centroid()
			hole := make(geom.Ring, len(pg.Exterior))
			for j, v := range pg.Exterior {
				hole[j] = geom.Point{X: cen.X + (v.X-cen.X)*0.4, Y: cen.Y + (v.Y-cen.Y)*0.4}
			}
			pg.Holes = []geom.Ring{hole}
		}
		m = append(m, pg)
	}
	return m, "mixed members"
}

// FillCase is one rasterization scenario: a small grid whose origin is
// offset so no cell center can land exactly on a lattice-aligned edge,
// plus a generated multipolygon scaled into the grid.
type FillCase struct {
	Desc string
	Geom raster.Geometry
	M    geom.MultiPolygon
}

// GenFillCase derives one rasterization scenario from the seed.
func GenFillCase(seed int64) FillCase {
	rng := rand.New(rand.NewSource(seed ^ 0x0f111ca5e))
	m, desc := GenMultiPolygon(seed)
	bb := m.BBox()
	if bb.IsEmpty() {
		bb = geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	}
	nx := 4 + rng.Intn(40)
	ny := 4 + rng.Intn(40)
	cell := bb.Width() / float64(nx)
	if cell <= 0 || math.IsNaN(cell) {
		cell = 1
	}
	// The 0.137 fractional offset keeps cell centers off the integer
	// lattice that rectilinear generators draw their edges on.
	g := raster.Geometry{
		MinX:     bb.MinX - cell*0.137,
		MinY:     bb.MinY - cell*0.137,
		CellSize: cell,
		NX:       nx,
		NY:       ny,
	}
	return FillCase{Desc: desc, Geom: g, M: m}
}

// GenMaskCase derives one distance-transform mask from the seed: random
// densities plus the structured worst cases — empty, full, single cell,
// and set cells confined to edge rows/columns (the off-by-one territory
// of the two-pass transform).
func GenMaskCase(seed int64) (*raster.BitGrid, string) {
	rng := rand.New(rand.NewSource(seed ^ 0x0d157a9ce))
	g := raster.Geometry{
		MinX:     rng.Float64() * 100,
		MinY:     rng.Float64() * 100,
		CellSize: []float64{1, 30, 270}[rng.Intn(3)],
		NX:       1 + rng.Intn(24),
		NY:       1 + rng.Intn(24),
	}
	mask := raster.NewBitGrid(g)
	switch seed % 6 {
	case 0:
		return mask, "empty mask"
	case 1:
		for cy := 0; cy < g.NY; cy++ {
			for cx := 0; cx < g.NX; cx++ {
				mask.Set(cx, cy, true)
			}
		}
		return mask, "full mask"
	case 2:
		mask.Set(rng.Intn(g.NX), rng.Intn(g.NY), true)
		return mask, "single cell"
	case 3:
		// Edge rows and columns only.
		for cx := 0; cx < g.NX; cx++ {
			if rng.Intn(2) == 0 {
				mask.Set(cx, 0, true)
			}
			if rng.Intn(2) == 0 {
				mask.Set(cx, g.NY-1, true)
			}
		}
		for cy := 0; cy < g.NY; cy++ {
			if rng.Intn(2) == 0 {
				mask.Set(0, cy, true)
			}
			if rng.Intn(2) == 0 {
				mask.Set(g.NX-1, cy, true)
			}
		}
		return mask, "edge rows/cols"
	default:
		density := rng.Float64() * 0.5
		for cy := 0; cy < g.NY; cy++ {
			for cx := 0; cx < g.NX; cx++ {
				if rng.Float64() < density {
					mask.Set(cx, cy, true)
				}
			}
		}
		return mask, "random density"
	}
}

// PointsCase is one point-index scenario: a point set (duplicates,
// collinear runs, identical points) plus window and radius queries,
// including radii that land exactly on a point distance.
type PointsCase struct {
	Desc     string
	Pts      []geom.Point
	CellSize float64
	Windows  []geom.BBox
	Centers  []geom.Point
	Radii    []float64
}

// GenPointsCase derives one point-index scenario from the seed.
func GenPointsCase(seed int64) PointsCase {
	rng := rand.New(rand.NewSource(seed ^ 0x9017175ca5e))
	var pts []geom.Point
	var desc string
	n := rng.Intn(400)
	switch seed % 5 {
	case 0:
		desc = "uniform points"
		for i := 0; i < n; i++ {
			pts = append(pts, geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000})
		}
	case 1:
		desc = "duplicates"
		p := geom.Point{X: 5, Y: 5}
		for i := 0; i < 1+n; i++ {
			pts = append(pts, p)
		}
	case 2:
		desc = "collinear"
		for i := 0; i < 1+n; i++ {
			pts = append(pts, geom.Point{X: float64(i), Y: 7})
		}
	case 3:
		desc = "two clusters far apart"
		for i := 0; i < 1+n; i++ {
			c := geom.Point{X: 0, Y: 0}
			if i%2 == 0 {
				c = geom.Point{X: 1e6, Y: 1e6}
			}
			pts = append(pts, geom.Point{X: c.X + rng.Float64(), Y: c.Y + rng.Float64()})
		}
	default:
		desc = "single point"
		pts = append(pts, geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
	}
	c := PointsCase{Desc: desc, Pts: pts, CellSize: []float64{0, 0.5, 10, 1e5}[rng.Intn(4)]}
	for q := 0; q < 10; q++ {
		x, y := rng.Float64()*1100-50, rng.Float64()*1100-50
		c.Windows = append(c.Windows, geom.BBox{MinX: x, MinY: y, MaxX: x + rng.Float64()*300, MaxY: y + rng.Float64()*300})
		c.Centers = append(c.Centers, geom.Point{X: x, Y: y})
		c.Radii = append(c.Radii, rng.Float64()*300)
	}
	if len(pts) > 1 {
		// A window whose edges pass exactly through a point, and a radius
		// exactly equal to a point distance (boundary inclusivity).
		p := pts[rng.Intn(len(pts))]
		c.Windows = append(c.Windows, geom.BBox{MinX: p.X, MinY: p.Y, MaxX: p.X + 10, MaxY: p.Y + 10})
		q := pts[rng.Intn(len(pts))]
		c.Centers = append(c.Centers, q)
		c.Radii = append(c.Radii, p.DistanceTo(q))
	}
	c.Centers = append(c.Centers, geom.Point{X: -1e9, Y: -1e9})
	c.Radii = append(c.Radii, -1)
	return c
}

// AlbersCase is one projection scenario: the projection parameters plus
// geographic probe points, including antimeridian-adjacent longitudes
// and near-polar latitudes.
type AlbersCase struct {
	Desc                   string
	Phi1, Phi2, Phi0, Lon0 float64
	LL                     []geom.Point
}

// GenAlbersCase derives one projection scenario from the seed. The
// standard parallels are kept at least five degrees apart and on the
// same side of the equator often enough that the cone constant n stays
// away from zero, where the Albers formulas are singular by definition.
func GenAlbersCase(seed int64) AlbersCase {
	rng := rand.New(rand.NewSource(seed ^ 0xa1be125))
	c := AlbersCase{Desc: "conus", Phi1: 29.5, Phi2: 45.5, Phi0: 23, Lon0: -96}
	if seed%3 != 0 {
		c.Desc = "random parallels"
		c.Phi1 = -55 + rng.Float64()*110
		c.Phi2 = c.Phi1 + 5 + rng.Float64()*20
		c.Phi0 = c.Phi1 - 10 + rng.Float64()*20
		c.Lon0 = -180 + rng.Float64()*360
	}
	for i := 0; i < 60; i++ {
		c.LL = append(c.LL, geom.Point{X: -180 + rng.Float64()*360, Y: -85 + rng.Float64()*170})
	}
	// Antimeridian-adjacent and extreme probes.
	c.LL = append(c.LL,
		geom.Point{X: 179.999999, Y: 30}, geom.Point{X: -179.999999, Y: 30},
		geom.Point{X: 180, Y: -45}, geom.Point{X: -180, Y: 45},
		geom.Point{X: c.Lon0, Y: c.Phi0},
		geom.Point{X: c.Lon0 + 179, Y: 89}, geom.Point{X: c.Lon0 - 179, Y: -89})
	return c
}

// WeightedVoronoiCase is one weighted-Voronoi pruning scenario: seeds
// and weights (duplicate seeds, equal weights, weights over six
// decades, seeds on box edges and corners), the boxes to prune
// against, and probe points of each box: its corners, points on its
// edges, points one ulp inside its corners, and interior points.
type WeightedVoronoiCase struct {
	Desc    string
	Seeds   []geom.Point
	Weights []float64
	Boxes   []geom.BBox
	Probes  [][]geom.Point // Probes[b] lie in Boxes[b]
}

// GenWeightedVoronoiCase derives one pruning scenario from the seed.
// Half the cases sit at the projected-metre magnitudes of the CONUS
// Albers frame, where the coordinates carry the fewest fraction bits.
func GenWeightedVoronoiCase(seed int64) WeightedVoronoiCase {
	rng := rand.New(rand.NewSource(seed ^ 0x7e1d0a5e))
	var origin geom.Point
	if rng.Intn(2) == 0 {
		origin = geom.Point{X: -2.4e6 + rng.Float64()*4.8e6, Y: 2.5e5 + rng.Float64()*3e6}
	}
	scale := []float64{1, 1000, 5e5}[rng.Intn(3)]
	lattice := seed%5 == 2
	coord := func() float64 {
		if lattice {
			return float64(rng.Intn(41) - 10)
		}
		return (1.5*rng.Float64() - 0.25) * scale
	}
	at := func(x, y float64) geom.Point { return geom.Point{X: origin.X + x, Y: origin.Y + y} }

	var c WeightedVoronoiCase
	for b := 0; b < 6; b++ {
		x0, y0, x1, y1 := coord(), coord(), coord(), coord()
		switch rng.Intn(6) {
		case 0:
			x1 = x0 // zero width
		case 1:
			x1, y1 = x0, y0 // a single point
		}
		c.Boxes = append(c.Boxes, geom.NewBBox(at(x0, y0), at(x1, y1)))
	}
	n := 1 + rng.Intn(60)
	switch seed % 5 {
	case 0:
		c.Desc = "random seeds"
		for i := 0; i < n; i++ {
			c.Seeds = append(c.Seeds, at(coord(), coord()))
			c.Weights = append(c.Weights, 1+rng.Float64())
		}
	case 1:
		c.Desc = "duplicate seeds"
		pool := []geom.Point{at(coord(), coord()), at(coord(), coord()), at(coord(), coord())}
		for i := 0; i < n; i++ {
			c.Seeds = append(c.Seeds, pool[rng.Intn(len(pool))])
			c.Weights = append(c.Weights, []float64{1, 2, 1 + rng.Float64()}[rng.Intn(3)])
		}
	case 2:
		c.Desc = "equal weights on an integer lattice"
		for i := 0; i < n; i++ {
			c.Seeds = append(c.Seeds, at(coord(), coord()))
			c.Weights = append(c.Weights, 3)
		}
	case 3:
		c.Desc = "weights over six decades"
		for i := 0; i < n; i++ {
			c.Seeds = append(c.Seeds, at(coord(), coord()))
			c.Weights = append(c.Weights, math.Pow(10, 6*rng.Float64()))
		}
	default:
		c.Desc = "seeds on box edges and corners"
		for i := 0; i < n; i++ {
			b := c.Boxes[rng.Intn(len(c.Boxes))]
			s := geom.Point{X: b.MinX, Y: b.MaxY}
			switch rng.Intn(3) {
			case 0:
				s.X = b.MinX + rng.Float64()*(b.MaxX-b.MinX)
			case 1:
				s.Y = b.MinY + rng.Float64()*(b.MaxY-b.MinY)
			}
			c.Seeds = append(c.Seeds, s)
			c.Weights = append(c.Weights, 1+rng.Float64())
		}
	}
	for _, b := range c.Boxes {
		c.Probes = append(c.Probes, boxProbes(rng, b))
	}
	return c
}

// boxProbes returns points of b: its corners and edge midpoints, random
// points on its edges, its corners moved one ulp inward on both axes,
// and random interior points.
func boxProbes(rng *rand.Rand, b geom.BBox) []geom.Point {
	lerp := func(lo, hi float64) float64 { return math.Min(hi, lo+rng.Float64()*(hi-lo)) }
	midX, midY := b.MinX+(b.MaxX-b.MinX)/2, b.MinY+(b.MaxY-b.MinY)/2
	inX := [2]float64{math.Nextafter(b.MinX, b.MaxX), math.Nextafter(b.MaxX, b.MinX)}
	inY := [2]float64{math.Nextafter(b.MinY, b.MaxY), math.Nextafter(b.MaxY, b.MinY)}
	pts := []geom.Point{
		{X: b.MinX, Y: b.MinY}, {X: b.MaxX, Y: b.MinY}, {X: b.MinX, Y: b.MaxY}, {X: b.MaxX, Y: b.MaxY},
		{X: midX, Y: b.MinY}, {X: midX, Y: b.MaxY}, {X: b.MinX, Y: midY}, {X: b.MaxX, Y: midY},
		{X: lerp(b.MinX, b.MaxX), Y: b.MinY}, {X: lerp(b.MinX, b.MaxX), Y: b.MaxY},
		{X: b.MinX, Y: lerp(b.MinY, b.MaxY)}, {X: b.MaxX, Y: lerp(b.MinY, b.MaxY)},
	}
	for _, x := range inX {
		for _, y := range inY {
			pts = append(pts, geom.Point{X: x, Y: y})
		}
	}
	for i := 0; i < 8; i++ {
		pts = append(pts, geom.Point{X: lerp(b.MinX, b.MaxX), Y: lerp(b.MinY, b.MaxY)})
	}
	return pts
}

// GenContourCase derives one contour-tracing mask from the seed: noise
// from 5% to 95% dense, checkerboards (every corner ambiguous), islands
// inside holes inside islands, one-row and one-column grids, and masks
// whose set cells touch every grid edge. Half the cases sit at the
// projected-metre magnitudes of the CONUS Albers frame.
func GenContourCase(seed int64) (*raster.BitGrid, string) {
	rng := rand.New(rand.NewSource(seed ^ 0x0c0a7e55))
	g := raster.Geometry{
		MinX:     rng.Float64() * 100,
		MinY:     rng.Float64() * 100,
		CellSize: []float64{1, 30, 270, 2500}[rng.Intn(4)],
		NX:       1 + rng.Intn(40),
		NY:       1 + rng.Intn(40),
	}
	if rng.Intn(2) == 0 {
		g.MinX = -2.4e6 + rng.Float64()*4.8e6
		g.MinY = 2.5e5 + rng.Float64()*3e6
	}
	mask := raster.NewBitGrid(g)
	noise := func(density float64) {
		for cy := 0; cy < g.NY; cy++ {
			for cx := 0; cx < g.NX; cx++ {
				if rng.Float64() < density {
					mask.Set(cx, cy, true)
				}
			}
		}
	}
	switch seed % 6 {
	case 0:
		density := 0.05 + 0.9*rng.Float64()
		noise(density)
		return mask, fmt.Sprintf("noise %.0f%%", 100*density)
	case 1:
		// A checkerboard over a random sub-rectangle, with some squares
		// filled in so checkerboard corners sit on longer rings.
		x0, y0 := rng.Intn(g.NX), rng.Intn(g.NY)
		x1, y1 := x0+rng.Intn(g.NX-x0), y0+rng.Intn(g.NY-y0)
		fill := rng.Float64() * 0.3
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				if (cx+cy)%2 == 0 || rng.Float64() < fill {
					mask.Set(cx, cy, true)
				}
			}
		}
		return mask, "checkerboard"
	case 2:
		// Concentric square annuli of random widths around a random
		// centre, alternately set and unset, with a few cells flipped:
		// islands in holes in islands, where a hole's centroid often
		// sits on the island it surrounds.
		if g.NX < 5 {
			g.NX += 5
		}
		if g.NY < 5 {
			g.NY += 5
		}
		mask = raster.NewBitGrid(g)
		ccx, ccy := rng.Intn(g.NX), rng.Intn(g.NY)
		ring := make([]bool, g.NX+g.NY) // ring[d]: annulus d cells out is set
		for d, set := 0, true; d < len(ring); set = !set {
			for w := 1 + rng.Intn(3); w > 0 && d < len(ring); w-- {
				ring[d] = set
				d++
			}
		}
		for cy := 0; cy < g.NY; cy++ {
			for cx := 0; cx < g.NX; cx++ {
				if ring[max(abs(cx-ccx), abs(cy-ccy))] != (rng.Float64() < 0.04) {
					mask.Set(cx, cy, true)
				}
			}
		}
		return mask, "islands in holes"
	case 3:
		if rng.Intn(2) == 0 {
			g.NX, g.NY = 1, 1+rng.Intn(60)
		} else {
			g.NX, g.NY = 1+rng.Intn(60), 1
		}
		mask = raster.NewBitGrid(g)
		noise(0.2 + 0.6*rng.Float64())
		return mask, fmt.Sprintf("%dx%d strip", g.NX, g.NY)
	case 4:
		noise(0.3 * rng.Float64())
		for cx := 0; cx < g.NX; cx++ {
			mask.Set(cx, 0, true)
			mask.Set(cx, g.NY-1, true)
		}
		for cy := 0; cy < g.NY; cy++ {
			mask.Set(0, cy, true)
			mask.Set(g.NX-1, cy, true)
		}
		return mask, "touching every edge"
	default:
		// Unions of random rectangles with random rectangles cut out.
		for k := 0; k < 2+rng.Intn(8); k++ {
			x0, y0 := rng.Intn(g.NX), rng.Intn(g.NY)
			x1, y1 := x0+rng.Intn(g.NX-x0), y0+rng.Intn(g.NY-y0)
			on := k < 2 || rng.Intn(3) > 0
			for cy := y0; cy <= y1; cy++ {
				for cx := x0; cx <= x1; cx++ {
					mask.Set(cx, cy, on)
				}
			}
		}
		return mask, "rectangles"
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
