package proj

import (
	"math"
	"testing"
	"testing/quick"

	"fivealarms/internal/geom"
)

// conusPoints are well-known locations inside the Albers CONUS domain.
var conusPoints = []geom.Point{
	{X: -122.4194, Y: 37.7749}, // San Francisco
	{X: -118.2437, Y: 34.0522}, // Los Angeles
	{X: -74.0060, Y: 40.7128},  // New York
	{X: -80.1918, Y: 25.7617},  // Miami
	{X: -104.9903, Y: 39.7392}, // Denver
	{X: -96.0, Y: 23.0},        // projection origin
	{X: -67.0, Y: 47.0},        // northern Maine
	{X: -124.5, Y: 48.3},       // NW Washington
}

func TestAlbersRoundTrip(t *testing.T) {
	a := ConusAlbers()
	for _, p := range conusPoints {
		xy := a.Forward(p)
		back := a.Inverse(xy)
		if math.Abs(back.X-p.X) > 1e-9 || math.Abs(back.Y-p.Y) > 1e-9 {
			t.Errorf("round trip %v -> %v -> %v", p, xy, back)
		}
	}
}

func TestAlbersRoundTripProperty(t *testing.T) {
	a := ConusAlbers()
	f := func(lonRaw, latRaw float64) bool {
		lon := -125 + math.Mod(math.Abs(lonRaw), 58) // [-125, -67]
		lat := 24 + math.Mod(math.Abs(latRaw), 25)   // [24, 49]
		p := geom.Point{X: lon, Y: lat}
		back := a.Inverse(a.Forward(p))
		return math.Abs(back.X-lon) < 1e-8 && math.Abs(back.Y-lat) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAlbersOriginMapsNearZero(t *testing.T) {
	a := ConusAlbers()
	xy := a.Forward(geom.Point{X: -96, Y: 23})
	if math.Abs(xy.X) > 1e-6 || math.Abs(xy.Y) > 1e-6 {
		t.Errorf("origin maps to %v, want (0,0)", xy)
	}
}

func TestAlbersEqualArea(t *testing.T) {
	// The defining property: equal geographic areas map to equal planar
	// areas regardless of latitude. Compare a 1x1 degree cell at 30N with
	// one at 45N: planar areas must match their spherical areas closely.
	a := ConusAlbers()
	cell := func(lon, lat float64) geom.Ring {
		return geom.NewRing(
			geom.Point{X: lon, Y: lat}, geom.Point{X: lon + 1, Y: lat},
			geom.Point{X: lon + 1, Y: lat + 1}, geom.Point{X: lon, Y: lat + 1},
		)
	}
	for _, tc := range []struct{ lon, lat float64 }{
		{-120, 30}, {-100, 38}, {-80, 45},
	} {
		r := cell(tc.lon, tc.lat)
		spherical := geom.GeographicRingArea(r)
		// Densify edges before projecting to capture curvature.
		dense := geom.Ring{}
		n := len(r)
		for i := 0; i < n; i++ {
			p1, p2 := r[i], r[(i+1)%n]
			for k := 0; k < 20; k++ {
				f := float64(k) / 20
				dense = append(dense, geom.Point{X: p1.X + (p2.X-p1.X)*f, Y: p1.Y + (p2.Y-p1.Y)*f})
			}
		}
		planar := ForwardRing(a, dense).Area()
		if rel := math.Abs(planar-spherical) / spherical; rel > 0.005 {
			t.Errorf("cell at (%v,%v): planar %.4g vs spherical %.4g (rel err %.4f)",
				tc.lon, tc.lat, planar, spherical, rel)
		}
	}
}

func TestAlbersDistancesReasonable(t *testing.T) {
	// Albers is not conformal but distance distortion in-domain is small:
	// LA->SF planar distance should be within 1% of great circle.
	a := ConusAlbers()
	la := geom.Point{X: -118.2437, Y: 34.0522}
	sf := geom.Point{X: -122.4194, Y: 37.7749}
	planar := a.Forward(la).DistanceTo(a.Forward(sf))
	gc := geom.Haversine(la, sf)
	if rel := math.Abs(planar-gc) / gc; rel > 0.01 {
		t.Errorf("planar %v vs great-circle %v (rel %v)", planar, gc, rel)
	}
}

func TestAlbersInverseBeyondPoles(t *testing.T) {
	// A planar point nearer the cone's apex than the north pole's arc,
	// or farther out than the south pole's, lies off the projected
	// sphere: Inverse clamps it to the nearer pole instead of NaN.
	a := ConusAlbers()
	for _, tc := range []struct {
		name string
		xy   geom.Point
		lat  float64
	}{
		{"apex", geom.Point{X: 0, Y: a.rho0}, 90},
		{"beyond north pole", geom.Point{X: 1000, Y: a.rho0 - 1000}, 90},
		{"beyond south pole", geom.Point{X: 0, Y: a.rho0 - 1e8}, -90},
	} {
		ll := a.Inverse(tc.xy)
		if math.IsNaN(ll.X) || math.Abs(ll.Y-tc.lat) > 1e-9 {
			t.Errorf("%s: Inverse(%v) = %v, want latitude %v", tc.name, tc.xy, ll, tc.lat)
		}
	}
}

func TestWebMercatorRoundTrip(t *testing.T) {
	m := WebMercator{}
	for _, p := range conusPoints {
		back := m.Inverse(m.Forward(p))
		if math.Abs(back.X-p.X) > 1e-9 || math.Abs(back.Y-p.Y) > 1e-9 {
			t.Errorf("round trip %v -> %v", p, back)
		}
	}
}

func TestWebMercatorClampsLatitude(t *testing.T) {
	m := WebMercator{}
	hi := m.Forward(geom.Point{X: 0, Y: 89.9})
	cap := m.Forward(geom.Point{X: 0, Y: MercatorMaxLat})
	if hi.Y != cap.Y {
		t.Errorf("latitude beyond cutoff should clamp: %v vs %v", hi.Y, cap.Y)
	}
}

func TestWebMercatorEquatorScale(t *testing.T) {
	m := WebMercator{}
	// One degree of longitude at the equator spans R * pi/180 meters.
	p := m.Forward(geom.Point{X: 1, Y: 0})
	want := geom.EarthRadiusMeters * math.Pi / 180
	if math.Abs(p.X-want) > 1 {
		t.Errorf("x = %v, want %v", p.X, want)
	}
	if math.Abs(p.Y) > 1e-6 {
		t.Errorf("equator should map to y=0, got %v", p.Y)
	}
}

func TestEquirectangularRoundTrip(t *testing.T) {
	e := NewEquirectangular(38)
	for _, p := range conusPoints {
		back := e.Inverse(e.Forward(p))
		if math.Abs(back.X-p.X) > 1e-9 || math.Abs(back.Y-p.Y) > 1e-9 {
			t.Errorf("round trip %v -> %v", p, back)
		}
	}
}

func TestProjectionNames(t *testing.T) {
	if ConusAlbers().Name() != "albers" {
		t.Error("albers name")
	}
	if (WebMercator{}).Name() != "webmercator" {
		t.Error("webmercator name")
	}
	if NewEquirectangular(0).Name() != "equirectangular" {
		t.Error("equirectangular name")
	}
}

func TestForwardRingPolygonHelpers(t *testing.T) {
	a := ConusAlbers()
	r := geom.NewRing(
		geom.Point{X: -120, Y: 35}, geom.Point{X: -119, Y: 35},
		geom.Point{X: -119, Y: 36}, geom.Point{X: -120, Y: 36},
	)
	pr := ForwardRing(a, r)
	if len(pr) != len(r) {
		t.Fatal("ring length changed")
	}
	back := InverseRing(a, pr)
	for i := range r {
		if math.Abs(back[i].X-r[i].X) > 1e-9 {
			t.Fatalf("vertex %d round trip failed", i)
		}
	}

	poly := geom.NewPolygon(r, geom.NewRing(
		geom.Point{X: -119.7, Y: 35.3}, geom.Point{X: -119.3, Y: 35.3},
		geom.Point{X: -119.3, Y: 35.7}, geom.Point{X: -119.7, Y: 35.7},
	))
	pp := ForwardPolygon(a, poly)
	if len(pp.Holes) != 1 {
		t.Fatal("hole lost in projection")
	}
	if pp.Area() >= pp.Exterior.Area() {
		t.Error("hole should reduce area")
	}

	mp := ForwardMultiPolygon(a, geom.MultiPolygon{poly, poly})
	if len(mp) != 2 {
		t.Error("multipolygon length")
	}
}

func TestForwardBBox(t *testing.T) {
	a := ConusAlbers()
	b := geom.NewBBox(geom.Point{X: -120, Y: 35}, geom.Point{X: -110, Y: 45})
	pb := ForwardBBox(a, b)
	if pb.IsEmpty() {
		t.Fatal("projected bbox empty")
	}
	// Every projected grid point of the original box must be inside
	// (allowing tiny tolerance for edge bowing).
	for lon := -120.0; lon <= -110; lon += 2.5 {
		for lat := 35.0; lat <= 45; lat += 2.5 {
			xy := a.Forward(geom.Point{X: lon, Y: lat})
			if !pb.Buffer(5000).ContainsPoint(xy) {
				t.Errorf("projected point %v outside projected bbox", xy)
			}
		}
	}
}
