// Package proj implements the map projections used by the fivealarms GIS
// kernel. The overlay analyses operate on equal-area projected grids (the
// USFS Wildfire Hazard Potential raster is distributed in an Albers
// Equal-Area Conic projection), so the package provides a spherical Albers
// implementation with the CONUS standard parallels, plus Web Mercator and
// equirectangular projections for map rendering.
//
// All projections are spherical (radius geom.EarthRadiusMeters). Forward
// maps geographic (lon, lat) degrees to projected (x, y) meters; Inverse is
// the exact inverse. Round-trip error is bounded by floating-point noise
// (see the property tests).
package proj

import (
	"math"

	"fivealarms/internal/geom"
)

// Projection converts between geographic coordinates (lon/lat degrees) and
// planar projected coordinates (meters).
type Projection interface {
	// Forward projects a geographic point to planar coordinates.
	Forward(ll geom.Point) geom.Point
	// Inverse unprojects planar coordinates back to geographic.
	Inverse(xy geom.Point) geom.Point
	// Name returns a short identifier for the projection.
	Name() string
}

// Albers is a spherical Albers Equal-Area Conic projection. Its defining
// property — preserved areas — is what makes it the right grid for zonal
// statistics like "transceivers per WHP class".
type Albers struct {
	name string
	// Projection constants (Snyder 1987, eq. 14-3 .. 14-11, spherical form).
	n      float64
	c      float64
	rho0   float64
	lon0   float64 // radians
	radius float64
}

// NewAlbers constructs an Albers projection with the given standard
// parallels (phi1, phi2), latitude of origin phi0 and central meridian
// lon0, all in degrees.
func NewAlbers(phi1, phi2, phi0, lon0 float64) *Albers {
	r1 := geom.Deg2Rad(phi1)
	r2 := geom.Deg2Rad(phi2)
	r0 := geom.Deg2Rad(phi0)
	n := (math.Sin(r1) + math.Sin(r2)) / 2
	c := math.Cos(r1)*math.Cos(r1) + 2*n*math.Sin(r1)
	a := &Albers{
		name:   "albers",
		n:      n,
		c:      c,
		lon0:   geom.Deg2Rad(lon0),
		radius: geom.EarthRadiusMeters,
	}
	a.rho0 = a.rho(r0)
	return a
}

// ConusAlbers returns the Albers projection conventionally used for the
// conterminous United States (standard parallels 29.5 and 45.5, origin
// 23N 96W) — the projection family of the USFS WHP raster.
func ConusAlbers() *Albers { return NewAlbers(29.5, 45.5, 23.0, -96.0) }

func (a *Albers) rho(phi float64) float64 {
	return a.radius * math.Sqrt(a.c-2*a.n*math.Sin(phi)) / a.n
}

// Name implements Projection.
func (a *Albers) Name() string { return a.name }

// Forward implements Projection.
func (a *Albers) Forward(ll geom.Point) geom.Point {
	phi := geom.Deg2Rad(ll.Y)
	lam := geom.Deg2Rad(ll.X)
	theta := a.n * (lam - a.lon0)
	rho := a.rho(phi)
	return geom.Point{
		X: rho * math.Sin(theta),
		Y: a.rho0 - rho*math.Cos(theta),
	}
}

// Inverse implements Projection.
func (a *Albers) Inverse(xy geom.Point) geom.Point {
	dy := a.rho0 - xy.Y
	rho := math.Hypot(xy.X, dy)
	theta := math.Atan2(xy.X, dy)
	if a.n < 0 {
		rho = -rho
		theta = math.Atan2(-xy.X, -dy)
	}
	sinPhi := (a.c - (rho*a.n/a.radius)*(rho*a.n/a.radius)) / (2 * a.n)
	if sinPhi > 1 {
		sinPhi = 1
	} else if sinPhi < -1 {
		sinPhi = -1
	}
	phi := math.Asin(sinPhi)
	lam := a.lon0 + theta/a.n
	return geom.Point{X: geom.Rad2Deg(lam), Y: geom.Rad2Deg(phi)}
}

// WebMercator is the spherical Mercator projection used by slippy-map
// renderers. Latitude is clamped to ±85.05113 degrees.
type WebMercator struct{}

// MercatorMaxLat is the latitude cutoff of the Web Mercator projection.
const MercatorMaxLat = 85.05112877980659

// Name implements Projection.
func (WebMercator) Name() string { return "webmercator" }

// Forward implements Projection.
func (WebMercator) Forward(ll geom.Point) geom.Point {
	lat := math.Max(-MercatorMaxLat, math.Min(MercatorMaxLat, ll.Y))
	x := geom.EarthRadiusMeters * geom.Deg2Rad(ll.X)
	y := geom.EarthRadiusMeters * math.Log(math.Tan(math.Pi/4+geom.Deg2Rad(lat)/2))
	return geom.Point{X: x, Y: y}
}

// Inverse implements Projection.
func (WebMercator) Inverse(xy geom.Point) geom.Point {
	lon := geom.Rad2Deg(xy.X / geom.EarthRadiusMeters)
	lat := geom.Rad2Deg(2*math.Atan(math.Exp(xy.Y/geom.EarthRadiusMeters)) - math.Pi/2)
	return geom.Point{X: lon, Y: lat}
}

// Equirectangular is the plate carrée projection with a configurable
// standard parallel; cheap and adequate for quick-look map rendering.
type Equirectangular struct {
	// CosPhi1 caches cos(standard parallel).
	cosPhi1 float64
}

// NewEquirectangular returns an equirectangular projection true at latitude
// phi1 degrees.
func NewEquirectangular(phi1 float64) *Equirectangular {
	return &Equirectangular{cosPhi1: math.Cos(geom.Deg2Rad(phi1))}
}

// Name implements Projection.
func (*Equirectangular) Name() string { return "equirectangular" }

// Forward implements Projection.
func (e *Equirectangular) Forward(ll geom.Point) geom.Point {
	return geom.Point{
		X: geom.EarthRadiusMeters * geom.Deg2Rad(ll.X) * e.cosPhi1,
		Y: geom.EarthRadiusMeters * geom.Deg2Rad(ll.Y),
	}
}

// Inverse implements Projection.
func (e *Equirectangular) Inverse(xy geom.Point) geom.Point {
	return geom.Point{
		X: geom.Rad2Deg(xy.X / (geom.EarthRadiusMeters * e.cosPhi1)),
		Y: geom.Rad2Deg(xy.Y / geom.EarthRadiusMeters),
	}
}

// ForwardRing projects every vertex of a geographic ring.
func ForwardRing(p Projection, r geom.Ring) geom.Ring {
	out := make(geom.Ring, len(r))
	for i, pt := range r {
		out[i] = p.Forward(pt)
	}
	return out
}

// InverseRing unprojects every vertex of a planar ring.
func InverseRing(p Projection, r geom.Ring) geom.Ring {
	out := make(geom.Ring, len(r))
	for i, pt := range r {
		out[i] = p.Inverse(pt)
	}
	return out
}

// ForwardPolygon projects a geographic polygon.
func ForwardPolygon(p Projection, poly geom.Polygon) geom.Polygon {
	out := geom.Polygon{Exterior: ForwardRing(p, poly.Exterior)}
	if len(poly.Holes) > 0 {
		out.Holes = make([]geom.Ring, len(poly.Holes))
		for i, h := range poly.Holes {
			out.Holes[i] = ForwardRing(p, h)
		}
	}
	return out
}

// ForwardMultiPolygon projects a geographic multipolygon.
func ForwardMultiPolygon(p Projection, m geom.MultiPolygon) geom.MultiPolygon {
	out := make(geom.MultiPolygon, len(m))
	for i, poly := range m {
		out[i] = ForwardPolygon(p, poly)
	}
	return out
}

// ForwardBBox projects the four corners of a geographic bbox and returns
// their bounding box. This is conservative for projections that bow edges
// slightly but adequate for pre-filters.
func ForwardBBox(p Projection, b geom.BBox) geom.BBox {
	out := geom.EmptyBBox()
	for _, pt := range []geom.Point{
		{X: b.MinX, Y: b.MinY}, {X: b.MaxX, Y: b.MinY},
		{X: b.MaxX, Y: b.MaxY}, {X: b.MinX, Y: b.MaxY},
		{X: (b.MinX + b.MaxX) / 2, Y: b.MinY}, {X: (b.MinX + b.MaxX) / 2, Y: b.MaxY},
	} {
		out = out.ExtendPoint(p.Forward(pt))
	}
	return out
}
