package geom_test

// The containment conformance tests live outside package geom because the
// differential driver imports geom; an external test package breaks the
// cycle while still running next to the code it guards.

import (
	"testing"

	"fivealarms/internal/refimpl/diffcheck"
)

// TestContainmentConformance sweeps the ray-cast containment predicates
// (Ring, Polygon and MultiPolygon ContainsPoint) against the refimpl
// twins over seeded adversarial rings: stars, rectilinear histograms,
// degenerate and pinched rings, huge and sub-epsilon coordinates.
func TestContainmentConformance(t *testing.T) {
	if err := diffcheck.Sweep(250, diffcheck.CheckContainment); err != nil {
		t.Fatal(err)
	}
}

// TestContainmentGoldens replays the hand-authored GeoJSON worst cases.
// The rectilinear fixture is the strict one: with every edge
// axis-aligned both ray-cast forms are exact, so even probes exactly on
// edges and vertices must agree bit-for-bit with no carve-out.
func TestContainmentGoldens(t *testing.T) {
	for _, name := range diffcheck.FixtureNames() {
		if err := diffcheck.CheckGoldenContainment(name); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzContainmentDiff drives the containment twins from fuzz-chosen
// seeds: every seed runs the full differential containment battery, so
// coverage grows with the generator instead of a single hand-rolled
// ring family.
func FuzzContainmentDiff(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := diffcheck.CheckContainment(seed); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWeightedVoronoiConformance sweeps the weighted-Voronoi candidate
// pruner against full first-minimum scans over seeded adversarial
// scenarios: duplicate seeds, exact ties on an integer lattice, weights
// over six decades, seeds on box edges and corners, and probes at box
// corners, on box edges and one ulp inside.
func TestWeightedVoronoiConformance(t *testing.T) {
	if err := diffcheck.Sweep(300, diffcheck.CheckWeightedVoronoi); err != nil {
		t.Fatal(err)
	}
}

// FuzzWeightedVoronoiDiff drives the pruner's twins from fuzz-chosen
// seeds.
func FuzzWeightedVoronoiDiff(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := diffcheck.CheckWeightedVoronoi(seed); err != nil {
			t.Fatal(err)
		}
	})
}
