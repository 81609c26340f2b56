package diffcheck

import (
	"fmt"
	"math"
	"reflect"

	"fivealarms/internal/faults"
	"fivealarms/internal/geom"
	"fivealarms/internal/grid"
	"fivealarms/internal/proj"
	"fivealarms/internal/raster"
	"fivealarms/internal/refimpl"
)

// boundaryTol is the relative tolerance of the boundary carve-out: a
// probe within tol*(1+scale) of an edge of a non-rectilinear ring is
// exempt from bit-identity (both implementations document boundary
// behavior as unspecified there).
const boundaryTol = 1e-9

// nearAnyEdge reports whether p lies within the carve-out distance of
// any edge of any ring.
func nearAnyEdge(rings []geom.Ring, p geom.Point, scale float64) bool {
	tol := boundaryTol * (1 + scale)
	for _, r := range rings {
		n := len(r)
		for i := 0; i < n; i++ {
			if geom.DistancePointSegment(p, r[i], r[(i+1)%n]) <= tol {
				return true
			}
		}
	}
	return false
}

func coordScale(rings []geom.Ring, p geom.Point) float64 {
	s := math.Max(math.Abs(p.X), math.Abs(p.Y))
	for _, r := range rings {
		for _, v := range r {
			s = math.Max(s, math.Max(math.Abs(v.X), math.Abs(v.Y)))
		}
	}
	return s
}

func allRectilinear(rings []geom.Ring) bool {
	for _, r := range rings {
		if !Rectilinear(r) {
			return false
		}
	}
	return true
}

// CheckContainment runs one seeded containment scenario: the naive geom
// ring predicate against the refimpl twin, then a generated
// multipolygon's and each member polygon's predicates against theirs.
// Verdicts must be bit-identical; on non-rectilinear rings, probes
// within floating-point noise of the boundary are exempt.
func CheckContainment(seed int64) error {
	c := GenContainmentCase(seed)
	rect := Rectilinear(c.Ring)
	rings := []geom.Ring{c.Ring}
	for _, p := range c.Probes {
		naive := c.Ring.ContainsPoint(p)
		ref := refimpl.RingContains(c.Ring, p)
		if naive == ref {
			continue
		}
		if !rect && nearAnyEdge(rings, p, coordScale(rings, p)) {
			continue
		}
		return divergef("ring-contains", seed, "%s: probe %v: naive=%v refimpl=%v (ring %v)",
			c.Desc, p, naive, ref, c.Ring)
	}
	return checkMultiPolygonContainment(seed)
}

func checkMultiPolygonContainment(seed int64) error {
	m, desc := GenMultiPolygon(seed)
	var rings []geom.Ring
	for _, pg := range m {
		rings = append(rings, pg.Exterior)
		rings = append(rings, pg.Holes...)
	}
	rect := allRectilinear(rings)
	rng := GenContainmentCase(seed) // reuse its probe battery shape
	probes := rng.Probes
	for _, r := range rings {
		for i, v := range r {
			probes = append(probes, v, geom.Point{
				X: (v.X + r[(i+1)%len(r)].X) / 2,
				Y: (v.Y + r[(i+1)%len(r)].Y) / 2,
			})
		}
	}
	bb := m.BBox()
	if !bb.IsEmpty() {
		probes = append(probes, bb.Center(), geom.Point{X: bb.MaxX + 1, Y: bb.MaxY + 1})
	}
	for _, p := range probes {
		naive := m.ContainsPoint(p)
		ref := refimpl.MultiPolygonContains(m, p)
		if naive == ref {
			continue
		}
		if !rect && nearAnyEdge(rings, p, coordScale(rings, p)) {
			continue
		}
		return divergef("multipolygon-contains", seed, "%s: probe %v: naive=%v refimpl=%v",
			desc, p, naive, ref)
	}
	// Each member polygon's predicate must agree with the refimpl
	// polygon predicate too (holes included).
	for pi := range m {
		memberRings := append([]geom.Ring{m[pi].Exterior}, m[pi].Holes...)
		memberRect := allRectilinear(memberRings)
		for _, p := range probes[:min(len(probes), 120)] {
			naive := m[pi].ContainsPoint(p)
			ref := refimpl.PolygonContains(m[pi], p)
			if naive == ref {
				continue
			}
			if !memberRect && nearAnyEdge(memberRings, p, coordScale(memberRings, p)) {
				continue
			}
			return divergef("polygon-contains", seed, "%s: member %d probe %v: naive=%v refimpl=%v",
				desc, pi, p, naive, ref)
		}
	}
	return nil
}

// CheckFill runs one seeded rasterization scenario: the scanline fill
// against the per-cell refimpl fill. Cell verdicts must be bit-identical
// except for centers within floating-point noise of a ring edge.
func CheckFill(seed int64) error {
	c := GenFillCase(seed)
	opt := raster.NewBitGrid(c.Geom)
	raster.FillPolygonsInto(opt, c.M)
	ref := refimpl.FillMultiPolygon(c.Geom, c.M)
	return compareMasks("fill", seed, c.Desc, c.Geom, opt, ref, c.M)
}

func compareMasks(primitive string, seed int64, desc string, g raster.Geometry, opt, ref *raster.BitGrid, m geom.MultiPolygon) error {
	var rings []geom.Ring
	for _, pg := range m {
		rings = append(rings, pg.Exterior)
		rings = append(rings, pg.Holes...)
	}
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			a, b := opt.Get(cx, cy), ref.Get(cx, cy)
			if a == b {
				continue
			}
			center := g.Center(cx, cy)
			if rings != nil && nearAnyEdge(rings, center, coordScale(rings, center)) {
				continue
			}
			return divergef(primitive, seed, "%s: cell (%d,%d) center %v: optimized=%v refimpl=%v on %v",
				desc, cx, cy, center, a, b, g)
		}
	}
	return nil
}

// CheckDistance runs one seeded distance-transform scenario: the
// two-pass Felzenszwalb-Huttenlocher transform against the brute-force
// twin (bit-identical floats — both reduce to sqrt of the same exact
// integer), then the derived dilation at several radii including exact
// cell-multiple boundaries.
func CheckDistance(seed int64) error {
	mask, desc := GenMaskCase(seed)
	opt := raster.DistanceTransform(mask)
	ref := refimpl.DistanceTransform(mask)
	g := mask.Geometry
	for i := range opt.Data {
		if opt.Data[i] == ref.Data[i] {
			continue
		}
		if math.IsInf(opt.Data[i], 1) && math.IsInf(ref.Data[i], 1) {
			continue
		}
		return divergef("distance-transform", seed, "%s: cell %d: optimized=%v refimpl=%v on %v",
			desc, i, opt.Data[i], ref.Data[i], g)
	}
	for _, dist := range []float64{0, g.CellSize * 0.5, g.CellSize, g.CellSize * 1.5, math.Sqrt2 * g.CellSize, g.CellSize * 3} {
		od := raster.DilateByDistance(mask, dist)
		rd := refimpl.DilateByDistance(mask, dist)
		for cy := 0; cy < g.NY; cy++ {
			for cx := 0; cx < g.NX; cx++ {
				if od.Get(cx, cy) != rd.Get(cx, cy) {
					return divergef("dilate", seed, "%s: dist %v cell (%d,%d): optimized=%v refimpl=%v",
						desc, dist, cx, cy, od.Get(cx, cy), rd.Get(cx, cy))
				}
			}
		}
	}
	return nil
}

// CheckPointIndex runs one seeded uniform-grid scenario: window, radius
// and count queries against exhaustive scans. Membership must be
// identical including points exactly on window edges and radius rims.
func CheckPointIndex(seed int64) error {
	c := GenPointsCase(seed)
	idx := grid.New(c.Pts, c.CellSize)
	if idx.Len() != len(c.Pts) {
		return divergef("grid-len", seed, "%s: Len=%d want %d", c.Desc, idx.Len(), len(c.Pts))
	}
	for _, w := range c.Windows {
		got := idx.Query(w, nil)
		want := refimpl.RangeQuery(c.Pts, w)
		if !sortedEqual(got, want) {
			return divergef("grid-query", seed, "%s: cell %v window %v: index=%v brute=%v",
				c.Desc, c.CellSize, w, got, want)
		}
	}
	for i := range c.Centers {
		center, r := c.Centers[i], c.Radii[i]
		got := idx.QueryRadius(center, r, nil)
		want := refimpl.RadiusQuery(c.Pts, center, r)
		if !sortedEqual(got, want) {
			return divergef("grid-radius", seed, "%s: center %v r %v: index=%v brute=%v",
				c.Desc, center, r, got, want)
		}
		if n := idx.CountRadius(center, r); n != len(want) {
			return divergef("grid-count", seed, "%s: center %v r %v: CountRadius=%d brute=%d",
				c.Desc, center, r, n, len(want))
		}
	}
	return nil
}

// CheckAlbers runs one seeded projection scenario: the cached proj.Albers
// against the cache-free Snyder transcription, forward and inverse, to
// <= 1 ulp per coordinate, plus the round-trip metamorphic property
// within the projection's valid domain.
func CheckAlbers(seed int64) error {
	c := GenAlbersCase(seed)
	opt := proj.NewAlbers(c.Phi1, c.Phi2, c.Phi0, c.Lon0)
	ref := refimpl.Albers{Phi1: c.Phi1, Phi2: c.Phi2, Phi0: c.Phi0, Lon0: c.Lon0}
	// Cone constant, for the round-trip domain guard below.
	n := (math.Sin(geom.Deg2Rad(c.Phi1)) + math.Sin(geom.Deg2Rad(c.Phi2))) / 2
	for _, ll := range c.LL {
		of := opt.Forward(ll)
		rf := ref.Forward(ll)
		if !EqualUlp(of.X, rf.X, 1) || !EqualUlp(of.Y, rf.Y, 1) {
			return divergef("albers-forward", seed, "%s: ll %v: optimized %v refimpl %v", c.Desc, ll, of, rf)
		}
		oi := opt.Inverse(of)
		ri := ref.Inverse(rf)
		if !EqualUlp(oi.X, ri.X, 1) || !EqualUlp(oi.Y, ri.Y, 1) {
			return divergef("albers-inverse", seed, "%s: xy %v: optimized %v refimpl %v", c.Desc, of, oi, ri)
		}
		// Round trip, inside the cone's unambiguous longitude range and
		// away from the parallels where the radical goes negative.
		theta := n * geom.Deg2Rad(ll.X-c.Lon0)
		if math.Abs(theta) >= math.Pi-1e-6 || !isFinitePt(of) {
			continue
		}
		if math.Abs(oi.X-ll.X) > 1e-6 || math.Abs(oi.Y-ll.Y) > 1e-6 {
			return divergef("albers-roundtrip", seed, "%s: ll %v round-trips to %v", c.Desc, ll, oi)
		}
	}
	return nil
}

func isFinitePt(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// parallelProcs are the GOMAXPROCS settings CheckParallel sweeps
// against GOMAXPROCS=1: prime and composite band counts, so bands of
// every shape (empty tails, single-row, whole-grid) get exercised.
var parallelProcs = [...]int{2, 3, 5, 16}

// parallelMinSide is the side CheckParallel scales every case up to.
// Kernels run one band below 2^14 cells, so it must keep
// parallelMinSide² at or above 2^14: a smaller case would run the
// serial path at every GOMAXPROCS and compare it with itself.
const parallelMinSide = 128

// parallelDilateCells are the dilation radii, in cells, CheckParallel
// runs on each mask.
var parallelDilateCells = [...]float64{1, math.Sqrt2, 2.5}

// kernelOutputs is every banded kernel's result on one scenario.
type kernelOutputs struct {
	fill   *raster.BitGrid
	dist   *raster.FloatGrid
	dilate [len(parallelDilateCells)]*raster.BitGrid
}

// runKernels runs every banded kernel at GOMAXPROCS procs.
func runKernels(procs int, fc FillCase, mask *raster.BitGrid) (o kernelOutputs) {
	faults.WithGOMAXPROCS(procs, func() {
		o.fill = raster.NewBitGrid(fc.Geom)
		raster.FillPolygonsInto(o.fill, fc.M)
		o.dist = raster.DistanceTransform(mask)
		for i, cells := range parallelDilateCells {
			o.dilate[i] = raster.DilateByDistance(mask, cells*mask.CellSize)
		}
	})
	return o
}

// CheckParallel runs one seeded parallel-schedule scenario: every tiled
// raster kernel at several GOMAXPROCS settings against its serial
// one-band result at GOMAXPROCS=1. The seeded cases are scaled to at
// least parallelMinSide cells per side so the kernels band: the fill
// grid is refined over the same extent, and the mask is tiled so its
// worst cases recur across every band seam. Masks and distances must be
// bit-identical — the banded kernels recompute the exact serial
// arithmetic per cell, so no boundary carve-out applies here.
func CheckParallel(seed int64) error {
	fc := GenFillCase(seed)
	k := (parallelMinSide + min(fc.Geom.NX, fc.Geom.NY) - 1) / min(fc.Geom.NX, fc.Geom.NY)
	fc.Geom.CellSize /= float64(k)
	fc.Geom.NX *= k
	fc.Geom.NY *= k

	tile, desc := GenMaskCase(seed)
	tg := tile.Geometry
	g := tg
	g.NX *= (parallelMinSide + tg.NX - 1) / tg.NX
	g.NY *= (parallelMinSide + tg.NY - 1) / tg.NY
	mask := raster.NewBitGrid(g)
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			mask.Set(cx, cy, tile.Get(cx%tg.NX, cy%tg.NY))
		}
	}
	desc = fmt.Sprintf("%s tiled %dx%d", desc, g.NX/tg.NX, g.NY/tg.NY)

	serial := runKernels(1, fc, mask)
	for _, p := range parallelProcs {
		par := runKernels(p, fc, mask)
		if cx, cy, ok := firstMaskDiff(serial.fill, par.fill); !ok {
			return divergef("parallel-fill", seed, "%s: GOMAXPROCS=%d cell (%d,%d): serial=%v parallel=%v on %v",
				fc.Desc, p, cx, cy, serial.fill.Get(cx, cy), par.fill.Get(cx, cy), fc.Geom)
		}
		for i := range par.dist.Data {
			if par.dist.Data[i] != serial.dist.Data[i] {
				return divergef("parallel-distance", seed, "%s: GOMAXPROCS=%d cell %d: serial=%v parallel=%v on %v",
					desc, p, i, serial.dist.Data[i], par.dist.Data[i], g)
			}
		}
		for i, cells := range parallelDilateCells {
			if cx, cy, ok := firstMaskDiff(serial.dilate[i], par.dilate[i]); !ok {
				return divergef("parallel-dilate", seed, "%s: GOMAXPROCS=%d dist %v cells, cell (%d,%d): serial=%v parallel=%v",
					desc, p, cells, cx, cy, serial.dilate[i].Get(cx, cy), par.dilate[i].Get(cx, cy))
			}
		}
	}
	return nil
}

// firstMaskDiff returns the first differing cell of two same-shape
// masks in row-major order; ok is true when the masks are identical.
func firstMaskDiff(a, b *raster.BitGrid) (cx, cy int, ok bool) {
	for y := 0; y < a.NY; y++ {
		for x := 0; x < a.NX; x++ {
			if a.Get(x, y) != b.Get(x, y) {
				return x, y, false
			}
		}
	}
	return 0, 0, true
}

// CheckWeightedVoronoi runs one seeded weighted-Voronoi pruning
// scenario. For every box, the candidates geom.WeightedVoronoiCandidates
// keeps must be in input order, and at every probe of the box the
// first-minimum scan over them must pick the seed that the scan over all
// seeds picks: under refimpl.WeightedNearest's sqrt(dx² + dy²) distance,
// which the state zones use, and under math.Hypot, which the county
// lookup uses.
func CheckWeightedVoronoi(seed int64) error {
	c := GenWeightedVoronoiCase(seed)
	for b, box := range c.Boxes {
		cand := geom.WeightedVoronoiCandidates(nil, box, c.Seeds, c.Weights)
		seeds := make([]geom.Point, len(cand))
		weights := make([]float64, len(cand))
		for k, i := range cand {
			if k > 0 && i <= cand[k-1] {
				return divergef("voronoi-order", seed, "%s: box %v: candidates %v out of input order", c.Desc, box, cand)
			}
			seeds[k], weights[k] = c.Seeds[i], c.Weights[i]
		}
		for _, p := range c.Probes[b] {
			for _, nearest := range []struct {
				name string
				scan func(geom.Point, []geom.Point, []float64) int
			}{{"sqrt", refimpl.WeightedNearest}, {"hypot", hypotNearest}} {
				want := nearest.scan(p, c.Seeds, c.Weights)
				got := -1
				if k := nearest.scan(p, seeds, weights); k >= 0 {
					got = cand[k]
				}
				if got != want {
					return divergef("voronoi-prune", seed, "%s: box %v probe %v (%s distance): %d of %d seeds kept, pruned scan picks %d, full scan %d",
						c.Desc, box, p, nearest.name, len(cand), len(c.Seeds), got, want)
				}
			}
		}
	}
	return nil
}

// hypotNearest is refimpl.WeightedNearest with the distance measured by
// math.Hypot (geom.Point.DistanceTo).
func hypotNearest(p geom.Point, seeds []geom.Point, weights []float64) int {
	best := -1
	bestD := math.Inf(1)
	for i, s := range seeds {
		if d := p.DistanceTo(s) / weights[i]; d < bestD {
			best = i
			bestD = d
		}
	}
	return best
}

// CheckContours runs one seeded contour-tracing scenario: the byte-per-
// vertex tracer against the edge-map refimpl twin. Rings, vertex order,
// ring order and hole assignment must be identical: both trace the same
// lattice corners, so there is no float carve-out. The traced polygons
// must also rasterize back (refimpl.FillMultiPolygon) to the mask bit for
// bit: every hole belongs to the polygon around it.
func CheckContours(seed int64) error {
	mask, desc := GenContourCase(seed)
	opt := raster.TraceContours(mask)
	ref := refimpl.TraceContours(mask)
	if !reflect.DeepEqual(opt, ref) {
		i := 0
		for i < min(len(opt), len(ref)) && reflect.DeepEqual(opt[i], ref[i]) {
			i++
		}
		return divergef("contour", seed, "%s on %v: %d polygons traced, refimpl %d; first difference at polygon %d",
			desc, mask.Geometry, len(opt), len(ref), i)
	}
	refill := refimpl.FillMultiPolygon(mask.Geometry, opt)
	if cx, cy, ok := firstMaskDiff(mask, refill); !ok {
		return divergef("contour-refill", seed, "%s on %v: cell (%d,%d) is %v in the mask, %v in the refilled contours",
			desc, mask.Geometry, cx, cy, mask.Get(cx, cy), refill.Get(cx, cy))
	}
	return nil
}

// CheckAll runs every driver on one seed — the hook the rewired fuzz
// targets and the study-level conformance test call.
func CheckAll(seed int64) error {
	for _, check := range []func(int64) error{
		CheckContainment, CheckFill, CheckDistance, CheckPointIndex, CheckAlbers, CheckParallel,
		CheckWeightedVoronoi, CheckContours,
	} {
		if err := check(seed); err != nil {
			return err
		}
	}
	return nil
}
