package diffcheck

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"fivealarms/internal/geom"
	"fivealarms/internal/grid"
	"fivealarms/internal/proj"
	"fivealarms/internal/raster"
	"fivealarms/internal/refimpl"
)

// Golden fixtures are hand-authored GeoJSON worst cases embedded in the
// package, so every consumer test sees the same bytes regardless of its
// working directory. Each fixture is a FeatureCollection of Polygon /
// MultiPolygon features; CheckGolden runs the full differential battery
// over it. Failures name the fixture instead of a seed:
// "diffcheck/golden/<primitive> (<fixture>): ...".

//go:embed testdata/*.geojson
var fixtureFS embed.FS

func goldenf(primitive, fixture, format string, args ...any) error {
	return fmt.Errorf("diffcheck/golden/%s (%s): %s", primitive, fixture, fmt.Sprintf(format, args...))
}

// FixtureNames lists the embedded golden fixtures, sorted.
func FixtureNames() []string {
	entries, err := fixtureFS.ReadDir("testdata")
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// geojson subset: just enough structure to carry polygon fixtures.
type gjFeatureCollection struct {
	Type     string      `json:"type"`
	Features []gjFeature `json:"features"`
}

type gjFeature struct {
	Type     string     `json:"type"`
	Geometry gjGeometry `json:"geometry"`
}

type gjGeometry struct {
	Type        string          `json:"type"`
	Coordinates json.RawMessage `json:"coordinates"`
}

// Fixture parses an embedded golden fixture into one MultiPolygon per
// feature. Polygon features become single-member MultiPolygons; other
// geometry types are an error — goldens are polygon worst cases only.
func Fixture(name string) ([]geom.MultiPolygon, error) {
	raw, err := fixtureFS.ReadFile("testdata/" + name)
	if err != nil {
		return nil, err
	}
	var fc gjFeatureCollection
	if err := json.Unmarshal(raw, &fc); err != nil {
		return nil, fmt.Errorf("fixture %s: %w", name, err)
	}
	var out []geom.MultiPolygon
	for fi, f := range fc.Features {
		switch f.Geometry.Type {
		case "Polygon":
			var coords [][][]float64
			if err := json.Unmarshal(f.Geometry.Coordinates, &coords); err != nil {
				return nil, fmt.Errorf("fixture %s feature %d: %w", name, fi, err)
			}
			out = append(out, geom.MultiPolygon{polygonFromCoords(coords)})
		case "MultiPolygon":
			var coords [][][][]float64
			if err := json.Unmarshal(f.Geometry.Coordinates, &coords); err != nil {
				return nil, fmt.Errorf("fixture %s feature %d: %w", name, fi, err)
			}
			var m geom.MultiPolygon
			for _, pg := range coords {
				m = append(m, polygonFromCoords(pg))
			}
			out = append(out, m)
		default:
			return nil, fmt.Errorf("fixture %s feature %d: unsupported geometry %q", name, fi, f.Geometry.Type)
		}
	}
	return out, nil
}

func polygonFromCoords(coords [][][]float64) geom.Polygon {
	var pg geom.Polygon
	for ri, ringCoords := range coords {
		r := make(geom.Ring, 0, len(ringCoords))
		for _, c := range ringCoords {
			r = append(r, geom.Pt(c[0], c[1]))
		}
		// GeoJSON closes rings explicitly; our rings are implicitly closed.
		if len(r) > 1 && r[0] == r[len(r)-1] {
			r = r[:len(r)-1]
		}
		if ri == 0 {
			pg.Exterior = r
		} else {
			pg.Holes = append(pg.Holes, r)
		}
	}
	return pg
}

// FixtureProbes builds the deterministic probe battery for a fixture
// geometry: a lattice over the buffered bounding box, every vertex,
// every edge midpoint, and slightly-off-vertex jitters.
func FixtureProbes(m geom.MultiPolygon) []geom.Point {
	bb := m.BBox()
	var probes []geom.Point
	if bb.IsEmpty() {
		return []geom.Point{geom.Pt(0, 0)}
	}
	w := math.Max(bb.MaxX-bb.MinX, 1e-12)
	h := math.Max(bb.MaxY-bb.MinY, 1e-12)
	const lattice = 17
	for iy := 0; iy <= lattice; iy++ {
		for ix := 0; ix <= lattice; ix++ {
			probes = append(probes, geom.Pt(
				bb.MinX-0.1*w+1.2*w*float64(ix)/lattice,
				bb.MinY-0.1*h+1.2*h*float64(iy)/lattice,
			))
		}
	}
	jit := 1e-9 * (1 + math.Max(math.Abs(bb.MaxX), math.Abs(bb.MaxY)))
	for _, pg := range m {
		for _, r := range append([]geom.Ring{pg.Exterior}, pg.Holes...) {
			n := len(r)
			for i, v := range r {
				next := r[(i+1)%n]
				probes = append(probes, v,
					geom.Pt((v.X+next.X)/2, (v.Y+next.Y)/2),
					geom.Pt(v.X+jit, v.Y+jit),
					geom.Pt(v.X-jit, v.Y-jit))
			}
		}
	}
	return probes
}

// CheckGolden runs the full differential battery over one embedded
// fixture: the ray-cast containment twins, rasterization, the distance
// transform of the rasterized mask, point-index queries over its
// vertices, and (when the coordinates are plausible lon/lat) the CONUS
// Albers twins.
func CheckGolden(name string) error {
	for _, check := range []func(string) error{
		CheckGoldenContainment, CheckGoldenRaster, CheckGoldenAlbers, CheckGoldenPoints,
	} {
		if err := check(name); err != nil {
			return err
		}
	}
	return nil
}

// CheckGoldenContainment runs the containment twins over one fixture.
func CheckGoldenContainment(name string) error {
	features, err := Fixture(name)
	if err != nil {
		return err
	}
	for fi, m := range features {
		if err := goldenContainment(fmt.Sprintf("%s#%d", name, fi), m); err != nil {
			return err
		}
	}
	return nil
}

// CheckGoldenRaster runs the fill and distance-transform twins over one
// fixture's rasterization.
func CheckGoldenRaster(name string) error {
	features, err := Fixture(name)
	if err != nil {
		return err
	}
	for fi, m := range features {
		if err := goldenFillAndDistance(fmt.Sprintf("%s#%d", name, fi), m); err != nil {
			return err
		}
	}
	return nil
}

// CheckGoldenAlbers runs the projection twins over one fixture's
// lon/lat-plausible vertices.
func CheckGoldenAlbers(name string) error {
	features, err := Fixture(name)
	if err != nil {
		return err
	}
	for fi, m := range features {
		if err := goldenAlbers(fmt.Sprintf("%s#%d", name, fi), m); err != nil {
			return err
		}
	}
	return nil
}

// CheckGoldenPoints runs the point-index twins over one fixture's
// vertices.
func CheckGoldenPoints(name string) error {
	features, err := Fixture(name)
	if err != nil {
		return err
	}
	return goldenPoints(name, features)
}

// goldenContainment compares the naive ray cast of one fixture feature,
// and of each of its rings alone, with the refimpl twins.
func goldenContainment(tag string, m geom.MultiPolygon) error {
	var rings []geom.Ring
	for _, pg := range m {
		rings = append(rings, pg.Exterior)
		rings = append(rings, pg.Holes...)
	}
	rect := allRectilinear(rings)
	for _, p := range FixtureProbes(m) {
		naive := m.ContainsPoint(p)
		ref := refimpl.MultiPolygonContains(m, p)
		if naive == ref {
			continue
		}
		if !rect && nearAnyEdge(rings, p, coordScale(rings, p)) {
			continue
		}
		return goldenf("multipolygon-contains", tag, "probe %v: naive=%v refimpl=%v", p, naive, ref)
	}
	for _, r := range rings {
		if len(r) < 3 {
			continue
		}
		rrect := Rectilinear(r)
		for _, p := range FixtureProbes(geom.MultiPolygon{{Exterior: r}}) {
			naive := r.ContainsPoint(p)
			ref := refimpl.RingContains(r, p)
			if naive == ref {
				continue
			}
			if !rrect && nearAnyEdge([]geom.Ring{r}, p, coordScale([]geom.Ring{r}, p)) {
				continue
			}
			return goldenf("ring-contains", tag, "probe %v: naive=%v refimpl=%v", p, naive, ref)
		}
	}
	return nil
}

func goldenFillAndDistance(tag string, m geom.MultiPolygon) error {
	bb := m.BBox()
	if bb.IsEmpty() {
		return nil
	}
	w := math.Max(bb.MaxX-bb.MinX, 1e-9)
	h := math.Max(bb.MaxY-bb.MinY, 1e-9)
	cell := math.Max(w, h) / 31
	g := raster.Geometry{
		MinX: bb.MinX - cell*1.137, MinY: bb.MinY - cell*1.137,
		CellSize: cell,
		NX:       int(w/cell) + 4, NY: int(h/cell) + 4,
	}
	opt := raster.NewBitGrid(g)
	raster.FillPolygonsInto(opt, m)
	ref := refimpl.FillMultiPolygon(g, m)
	if err := compareMasksGolden("fill", tag, g, opt, ref, m); err != nil {
		return err
	}
	// The fixture's own rasterization seeds the distance-transform golden.
	dt := raster.DistanceTransform(opt)
	rdt := refimpl.DistanceTransform(opt)
	for i := range dt.Data {
		if dt.Data[i] != rdt.Data[i] && !(math.IsInf(dt.Data[i], 1) && math.IsInf(rdt.Data[i], 1)) {
			return goldenf("distance-transform", tag, "cell %d: optimized=%v refimpl=%v", i, dt.Data[i], rdt.Data[i])
		}
	}
	for _, dist := range []float64{cell, 2.5 * cell} {
		od := raster.DilateByDistance(opt, dist)
		rd := refimpl.DilateByDistance(opt, dist)
		for cy := 0; cy < g.NY; cy++ {
			for cx := 0; cx < g.NX; cx++ {
				if od.Get(cx, cy) != rd.Get(cx, cy) {
					return goldenf("dilate", tag, "dist %v cell (%d,%d): optimized=%v refimpl=%v",
						dist, cx, cy, od.Get(cx, cy), rd.Get(cx, cy))
				}
			}
		}
	}
	return nil
}

func compareMasksGolden(primitive, tag string, g raster.Geometry, opt, ref *raster.BitGrid, m geom.MultiPolygon) error {
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
			if nearAnyEdge(rings, center, coordScale(rings, center)) {
				continue
			}
			return goldenf(primitive, tag, "cell (%d,%d) center %v: optimized=%v refimpl=%v", cx, cy, center, a, b)
		}
	}
	return nil
}

func goldenAlbers(tag string, m geom.MultiPolygon) error {
	opt := proj.ConusAlbers()
	ref := refimpl.Albers{Phi1: 29.5, Phi2: 45.5, Phi0: 23, Lon0: -96}
	n := (math.Sin(geom.Deg2Rad(29.5)) + math.Sin(geom.Deg2Rad(45.5))) / 2
	for _, pg := range m {
		for _, r := range append([]geom.Ring{pg.Exterior}, pg.Holes...) {
			for _, v := range r {
				if math.Abs(v.X) > 180 || math.Abs(v.Y) > 89 {
					continue // not a plausible lon/lat; skip, don't fail
				}
				of := opt.Forward(v)
				rf := ref.Forward(v)
				if !EqualUlp(of.X, rf.X, 1) || !EqualUlp(of.Y, rf.Y, 1) {
					return goldenf("albers-forward", tag, "ll %v: optimized %v refimpl %v", v, of, rf)
				}
				oi := opt.Inverse(of)
				ri := ref.Inverse(rf)
				if !EqualUlp(oi.X, ri.X, 1) || !EqualUlp(oi.Y, ri.Y, 1) {
					return goldenf("albers-inverse", tag, "xy %v: optimized %v refimpl %v", of, oi, ri)
				}
				theta := n * geom.Deg2Rad(v.X-(-96))
				if math.Abs(theta) >= math.Pi-1e-6 || !isFinitePt(of) {
					continue
				}
				if math.Abs(oi.X-v.X) > 1e-6 || math.Abs(oi.Y-v.Y) > 1e-6 {
					return goldenf("albers-roundtrip", tag, "ll %v round-trips to %v", v, oi)
				}
			}
		}
	}
	return nil
}

func goldenPoints(name string, features []geom.MultiPolygon) error {
	var pts []geom.Point
	var windows []geom.BBox
	for _, m := range features {
		for _, pg := range m {
			for _, r := range append([]geom.Ring{pg.Exterior}, pg.Holes...) {
				pts = append(pts, r...)
				windows = append(windows, r.BBox())
			}
		}
	}
	if len(pts) == 0 {
		return nil
	}
	bb := geom.PointsBBox(pts)
	extent := math.Max(bb.MaxX-bb.MinX, 1e-9)
	// The third cell size is deliberately tiny relative to the extent: on
	// the sparse_clusters fixture it regression-tests grid.New's bucket
	// clamp (cell count bounded by point count, not coordinate span).
	for _, cell := range []float64{0, extent / 8, extent / 2048} {
		idx := grid.New(pts, cell)
		for _, w := range append(windows, bb, geom.EmptyBBox()) {
			got := idx.Query(w, nil)
			want := refimpl.RangeQuery(pts, w)
			if !sortedEqual(got, want) {
				return goldenf("grid-query", name, "cell %v window %v: index=%v brute=%v", cell, w, got, want)
			}
		}
		center := bb.Center()
		for _, p := range pts[:min(len(pts), 24)] {
			// Radius exactly the distance to a real point: rim inclusion
			// must match bit-for-bit.
			r := math.Hypot(p.X-center.X, p.Y-center.Y)
			got := idx.QueryRadius(center, r, nil)
			want := refimpl.RadiusQuery(pts, center, r)
			if !sortedEqual(got, want) {
				return goldenf("grid-radius", name, "cell %v r %v: index=%v brute=%v", cell, r, got, want)
			}
			if n := idx.CountRadius(center, r); n != len(want) {
				return goldenf("grid-count", name, "cell %v r %v: CountRadius=%d brute=%d", cell, r, n, len(want))
			}
		}
	}
	return nil
}
