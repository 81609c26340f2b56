package geom

import "math"

// Deg2Rad converts degrees to radians.
func Deg2Rad(d float64) float64 { return d * math.Pi / 180 }

// Rad2Deg converts radians to degrees.
func Rad2Deg(r float64) float64 { return r * 180 / math.Pi }

// Haversine returns the great-circle distance in meters between two
// geographic points (lon/lat degrees) on the WGS84 mean sphere.
func Haversine(a, b Point) float64 {
	lat1 := Deg2Rad(a.Y)
	lat2 := Deg2Rad(b.Y)
	dLat := lat2 - lat1
	dLon := Deg2Rad(b.X - a.X)
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// Destination returns the geographic point reached by travelling dist meters
// from start on the initial bearing (degrees clockwise from north).
func Destination(start Point, bearingDeg, dist float64) Point {
	lat1 := Deg2Rad(start.Y)
	lon1 := Deg2Rad(start.X)
	brg := Deg2Rad(bearingDeg)
	dr := dist / EarthRadiusMeters

	lat2 := math.Asin(math.Sin(lat1)*math.Cos(dr) + math.Cos(lat1)*math.Sin(dr)*math.Cos(brg))
	lon2 := lon1 + math.Atan2(
		math.Sin(brg)*math.Sin(dr)*math.Cos(lat1),
		math.Cos(dr)-math.Sin(lat1)*math.Sin(lat2),
	)
	// Normalize longitude to [-180, 180).
	lon2 = math.Mod(lon2+3*math.Pi, 2*math.Pi) - math.Pi
	return Point{X: Rad2Deg(lon2), Y: Rad2Deg(lat2)}
}

// InitialBearing returns the initial great-circle bearing in degrees
// (clockwise from north, in [0, 360)) to travel from a to b.
func InitialBearing(a, b Point) float64 {
	lat1 := Deg2Rad(a.Y)
	lat2 := Deg2Rad(b.Y)
	dLon := Deg2Rad(b.X - a.X)
	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	brg := Rad2Deg(math.Atan2(y, x))
	return math.Mod(brg+360, 360)
}

// MetersPerDegreeLat is the approximate meridional meter length of one
// degree of latitude on the mean sphere.
func MetersPerDegreeLat() float64 { return EarthRadiusMeters * math.Pi / 180 }

// MetersPerDegreeLon returns the meter length of one degree of longitude at
// the given latitude (degrees).
func MetersPerDegreeLon(latDeg float64) float64 {
	return EarthRadiusMeters * math.Pi / 180 * math.Cos(Deg2Rad(latDeg))
}

// GeographicBufferBBox expands a geographic bounding box by dist meters,
// accounting for longitude convergence at the box's extreme latitude. It is
// a cheap conservative pre-filter for radius queries on geographic data.
func GeographicBufferBBox(b BBox, dist float64) BBox {
	if b.IsEmpty() {
		return b
	}
	dLat := dist / MetersPerDegreeLat()
	extremeLat := math.Max(math.Abs(b.MinY), math.Abs(b.MaxY))
	mLon := MetersPerDegreeLon(extremeLat)
	dLon := dist / math.Max(mLon, 1) // guard poles
	return BBox{MinX: b.MinX - dLon, MinY: b.MinY - dLat, MaxX: b.MaxX + dLon, MaxY: b.MaxY + dLat}
}

// GeographicRingArea returns the spherical area in square meters of a ring
// whose vertices are geographic (lon/lat degree) coordinates, using the
// spherical excess formula (L'Huilier via the signed spherical polygon area).
// The result is unsigned.
func GeographicRingArea(r Ring) float64 {
	n := len(r)
	if n < 3 {
		return 0
	}
	var total float64
	for i := 0; i < n; i++ {
		p1 := r[i]
		p2 := r[(i+1)%n]
		lon1 := Deg2Rad(p1.X)
		lon2 := Deg2Rad(p2.X)
		lat1 := Deg2Rad(p1.Y)
		lat2 := Deg2Rad(p2.Y)
		total += (lon2 - lon1) * (2 + math.Sin(lat1) + math.Sin(lat2))
	}
	area := math.Abs(total) * EarthRadiusMeters * EarthRadiusMeters / 2
	return area
}

// Acres converts an area in square meters to acres.
func Acres(squareMeters float64) float64 { return squareMeters / SquareMetersPerAcre }
