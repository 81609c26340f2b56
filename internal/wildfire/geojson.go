package wildfire

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"fivealarms/internal/conus"
	"fivealarms/internal/geom"
)

// geoJSON wire types (the subset GeoMAC-style perimeter exports use).
type gjFeatureCollection struct {
	Type     string      `json:"type"`
	Features []gjFeature `json:"features"`
}

type gjFeature struct {
	Type       string                 `json:"type"`
	Properties map[string]interface{} `json:"properties"`
	Geometry   gjGeometry             `json:"geometry"`
}

type gjGeometry struct {
	Type        string           `json:"type"`
	Coordinates [][][][2]float64 `json:"coordinates"` // MultiPolygon
}

// WriteGeoJSON serializes a season's mapped fires as a GeoJSON
// FeatureCollection with geographic (lon/lat) MultiPolygon perimeters and
// GeoMAC-style properties.
func (s *Season) WriteGeoJSON(w io.Writer, world *conus.World) error {
	fc := gjFeatureCollection{Type: "FeatureCollection"}
	for i := range s.Mapped {
		f := &s.Mapped[i]
		coords := make([][][][2]float64, 0, len(f.Perimeter))
		for _, poly := range f.Perimeter {
			rings := make([][][2]float64, 0, 1+len(poly.Holes))
			rings = append(rings, ringToLonLat(poly.Exterior, world))
			for _, h := range poly.Holes {
				rings = append(rings, ringToLonLat(h, world))
			}
			coords = append(coords, rings)
		}
		fc.Features = append(fc.Features, gjFeature{
			Type: "Feature",
			Properties: map[string]interface{}{
				"incidentname":      f.Name,
				"fireyear":          f.Year,
				"gisacres":          f.Acres,
				"perimeterdatetime": fmt.Sprintf("%d-%03d", f.Year, f.EndDay),
				"roadcorridor":      f.RoadCorridor,
			},
			Geometry: gjGeometry{Type: "MultiPolygon", Coordinates: coords},
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(fc); err != nil {
		return fmt.Errorf("wildfire: encoding GeoJSON: %w", err)
	}
	return nil
}

// maxGeoJSONVertices caps the total vertex count a FeatureCollection may
// carry before projection. Real GeoMAC-style exports trace perimeters at
// raster resolution — thousands of vertices per fire — so a million-plus
// total marks a corrupt or hostile file, and rejecting it up front keeps
// a small document from driving an arbitrarily large projection pass
// (the same posture as cellnet.ReadSnapshot's row cap and
// raster.ReadArcASCII's cell cap).
const maxGeoJSONVertices = 1 << 20

// ReadGeoJSON parses a perimeter FeatureCollection back into fires with
// projected perimeters. Properties not produced by WriteGeoJSON are
// ignored; missing names become "unknown".
//
// The reader is defensive, matching the binary and ArcASCII readers:
// non-finite or out-of-range lon/lat coordinates are rejected, the total
// vertex count is capped at maxGeoJSONVertices before any projection
// work, and every geometry error names the feature, polygon and ring it
// was found in.
func ReadGeoJSON(r io.Reader, world *conus.World) ([]Fire, error) {
	var fc gjFeatureCollection
	dec := json.NewDecoder(r)
	if err := dec.Decode(&fc); err != nil {
		return nil, fmt.Errorf("wildfire: decoding GeoJSON: %w", err)
	}
	if fc.Type != "FeatureCollection" {
		return nil, fmt.Errorf("wildfire: not a FeatureCollection: %q", fc.Type)
	}
	fires := make([]Fire, 0, len(fc.Features))
	vertices := 0
	for i, ft := range fc.Features {
		if ft.Geometry.Type != "MultiPolygon" {
			return nil, fmt.Errorf("wildfire: feature %d: unsupported geometry %q", i, ft.Geometry.Type)
		}
		var mp geom.MultiPolygon
		for pi, rings := range ft.Geometry.Coordinates {
			if len(rings) == 0 {
				continue
			}
			for ri, ring := range rings {
				vertices += len(ring)
				if vertices > maxGeoJSONVertices {
					return nil, fmt.Errorf("wildfire: feature %d polygon %d ring %d: total vertex count exceeds the %d limit", i, pi, ri, maxGeoJSONVertices)
				}
				for vi, c := range ring {
					if err := checkLonLat(c[0], c[1]); err != nil {
						return nil, fmt.Errorf("wildfire: feature %d polygon %d ring %d vertex %d: %w", i, pi, ri, vi, err)
					}
				}
			}
			poly := geom.Polygon{Exterior: lonLatToRing(rings[0], world)}
			for _, h := range rings[1:] {
				poly.Holes = append(poly.Holes, lonLatToRing(h, world))
			}
			mp = append(mp, poly)
		}
		f := Fire{ID: i, Name: "unknown", Perimeter: mp, Acres: geom.Acres(mp.Area())}
		if v, ok := ft.Properties["incidentname"].(string); ok {
			f.Name = v
		}
		if v, ok := ft.Properties["fireyear"].(float64); ok {
			f.Year = int(v)
		}
		if v, ok := ft.Properties["roadcorridor"].(bool); ok {
			f.RoadCorridor = v
		}
		if len(mp) > 0 {
			f.Ignition = mp.Centroid()
			f.StateIdx = world.StateAt(f.Ignition)
		}
		fires = append(fires, f)
	}
	return fires, nil
}

// checkLonLat rejects the coordinates cellnet.ReadSnapshot's position guard
// rejects: NaN, infinities, and values outside the geographic range.
func checkLonLat(lon, lat float64) error {
	if math.IsNaN(lon) || math.IsNaN(lat) || math.IsInf(lon, 0) || math.IsInf(lat, 0) ||
		lon < -180 || lon > 180 || lat < -90 || lat > 90 {
		return fmt.Errorf("coordinate (%v, %v) outside lon/lat range", lon, lat)
	}
	return nil
}

func ringToLonLat(r geom.Ring, world *conus.World) [][2]float64 {
	out := make([][2]float64, 0, len(r)+1)
	for _, p := range r {
		ll := world.ToLonLat(p)
		out = append(out, [2]float64{ll.X, ll.Y})
	}
	if len(r) > 0 { // GeoJSON rings repeat the first vertex
		ll := world.ToLonLat(r[0])
		out = append(out, [2]float64{ll.X, ll.Y})
	}
	return out
}

func lonLatToRing(coords [][2]float64, world *conus.World) geom.Ring {
	pts := make([]geom.Point, 0, len(coords))
	for _, c := range coords {
		pts = append(pts, world.ToXY(geom.Point{X: c[0], Y: c[1]}))
	}
	return geom.NewRing(pts...)
}
