package diffcheck

import (
	"math"
	"testing"
)

// The package's own tests run broad seed sweeps of every driver; the
// per-package conformance tests (geom, raster, grid, proj) rerun
// focused slices of the same drivers next to the code they guard.

func TestSweepContainment(t *testing.T) {
	if err := Sweep(300, CheckContainment); err != nil {
		t.Fatal(err)
	}
}

func TestSweepFill(t *testing.T) {
	if err := Sweep(200, CheckFill); err != nil {
		t.Fatal(err)
	}
}

func TestSweepDistance(t *testing.T) {
	if err := Sweep(200, CheckDistance); err != nil {
		t.Fatal(err)
	}
}

func TestSweepParallelKernels(t *testing.T) {
	if err := Sweep(150, CheckParallel); err != nil {
		t.Fatal(err)
	}
}

func TestSweepPointIndex(t *testing.T) {
	if err := Sweep(200, CheckPointIndex); err != nil {
		t.Fatal(err)
	}
}

func TestSweepAlbers(t *testing.T) {
	if err := Sweep(300, CheckAlbers); err != nil {
		t.Fatal(err)
	}
}

func TestSweepWeightedVoronoi(t *testing.T) {
	if err := Sweep(400, CheckWeightedVoronoi); err != nil {
		t.Fatal(err)
	}
}

func TestSweepContours(t *testing.T) {
	if err := Sweep(600, CheckContours); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenFixtures(t *testing.T) {
	names := FixtureNames()
	if len(names) < 3 {
		t.Fatalf("expected at least 3 embedded fixtures, found %v", names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			if err := CheckGolden(name); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFixtureParsing(t *testing.T) {
	features, err := Fixture("rectilinear_perimeter.geojson")
	if err != nil {
		t.Fatal(err)
	}
	if len(features) != 3 {
		t.Fatalf("rectilinear_perimeter has %d features, want 3", len(features))
	}
	if len(features[0]) != 2 {
		t.Errorf("feature 0 has %d members, want 2", len(features[0]))
	}
	if len(features[0][0].Holes) != 1 {
		t.Errorf("feature 0 member 0 has %d holes, want 1", len(features[0][0].Holes))
	}
	// GeoJSON's explicit closing vertex must be stripped.
	ext := features[0][0].Exterior
	if ext[0] == ext[len(ext)-1] {
		t.Error("closing vertex not stripped")
	}
	if _, err := Fixture("no_such.geojson"); err == nil {
		t.Error("missing fixture must error")
	}
}

func TestEqualUlp(t *testing.T) {
	cases := []struct {
		a, b   float64
		maxUlp uint64
		want   bool
	}{
		{1.0, 1.0, 0, true},
		{1.0, math.Nextafter(1, 2), 1, true},
		{1.0, math.Nextafter(math.Nextafter(1, 2), 2), 1, false},
		{0.0, math.Copysign(0, -1), 0, true},
		{math.NaN(), math.NaN(), 0, true},
		{math.NaN(), 1.0, 64, false},
		{math.Inf(1), math.Inf(1), 0, true},
		{math.Inf(1), math.MaxFloat64, 64, false},
		{1e-300, -1e-300, 1 << 40, false},
	}
	for _, c := range cases {
		if got := EqualUlp(c.a, c.b, c.maxUlp); got != c.want {
			t.Errorf("EqualUlp(%g, %g, %d) = %v, want %v", c.a, c.b, c.maxUlp, got, c.want)
		}
	}
}

func TestDivergenceMessageShape(t *testing.T) {
	err := divergef("ring-contains", 42, "detail %d", 7)
	const want = "diffcheck/ring-contains (seed 42): detail 7"
	if err.Error() != want {
		t.Errorf("divergef = %q, want %q", err.Error(), want)
	}
}
