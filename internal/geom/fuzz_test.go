package geom

import (
	"testing"
)

// Fuzz targets run their seed corpus under plain `go test` and can be
// expanded with `go test -fuzz=FuzzParseWKT ./internal/geom`.
//
// The containment fuzzer, FuzzContainmentDiff, lives in
// diff_conformance_test.go: it drives the differential suite (the naive
// ray cast against its refimpl twin). Only the WKT parser fuzzers live
// in-package, since they exercise unexported parser state.

func FuzzParseWKTPoint(f *testing.F) {
	f.Add("POINT (1 2)")
	f.Add("POINT (-118.2437 34.0522)")
	f.Add("point(0 0)")
	f.Add("POINT ()")
	f.Add("POINT (1 2 3)")
	f.Add("POLYGON ((0 0, 1 0, 1 1))")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseWKTPoint(s)
		if err == nil {
			// Successful parses must round-trip to an equal point.
			back, err2 := ParseWKTPoint(WKTPoint(p))
			if err2 != nil {
				t.Fatalf("round trip of %q failed: %v", s, err2)
			}
			if back != p && !(p.X != p.X || p.Y != p.Y) { // NaN compares false
				t.Fatalf("round trip of %q changed point: %v -> %v", s, p, back)
			}
		}
	})
}

func FuzzParseWKTPolygon(f *testing.F) {
	f.Add("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	f.Add("POLYGON ((0 0, 4 0, 4 4), (1 1, 2 1, 2 2))")
	f.Add("POLYGON (())")
	f.Add("POLYGON")
	f.Add("MULTIPOLYGON (((0 0, 1 0, 1 1)))")
	f.Fuzz(func(t *testing.T, s string) {
		poly, err := ParseWKTPolygon(s)
		if err == nil && poly.Valid() {
			back, err2 := ParseWKTPolygon(WKTPolygon(poly))
			if err2 != nil {
				t.Fatalf("round trip of %q failed: %v", s, err2)
			}
			if len(back.Holes) != len(poly.Holes) {
				t.Fatalf("round trip of %q changed hole count", s)
			}
		}
	})
}

func FuzzParseWKTMultiPolygon(f *testing.F) {
	f.Add("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)))")
	f.Add("MULTIPOLYGON EMPTY")
	f.Add("MULTIPOLYGON ((()))")
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseWKTMultiPolygon(s)
		if err == nil {
			_, err2 := ParseWKTMultiPolygon(WKTMultiPolygon(m))
			if err2 != nil {
				t.Fatalf("round trip of %q failed: %v", s, err2)
			}
		}
	})
}
