package whp

import (
	"math"
	"testing"
)

// Class-boundary reclassification: the cut points use strict h < cut,
// so a hazard exactly at a threshold lands in the class ABOVE it. These
// tests pin that contract — a reimplementation that flips to <= would
// silently move every boundary cell down one class and shift the Table
// 4 histograms.

func TestClassifyExactThresholds(t *testing.T) {
	cases := []struct {
		h    float64
		want Class
	}{
		{0, VeryLow},
		{math.Nextafter(0.12, 0), VeryLow}, // one ulp below the cut
		{0.12, Low},                        // exactly at the cut: upper class
		{math.Nextafter(0.12, 1), Low},
		{math.Nextafter(0.26, 0), Low},
		{0.26, Moderate},
		{math.Nextafter(0.42, 0), Moderate},
		{0.42, High},
		{math.Nextafter(0.60, 0), High},
		{0.60, VeryHigh},
		{0.999, VeryHigh},
	}
	for _, c := range cases {
		if got := classify(c.h); got != c.want {
			t.Errorf("classify(%v) = %v, want %v", c.h, got, c.want)
		}
	}
}

// TestClassifyMonotone sweeps a fine hazard ladder and asserts the class
// never decreases as hazard increases — the property every downstream
// ordering test (nesting, at-risk fractions) quietly depends on.
func TestClassifyMonotone(t *testing.T) {
	prev := VeryLow
	for i := 0; i <= 10000; i++ {
		h := float64(i) / 10000
		c := classify(h)
		if c < prev {
			t.Fatalf("classify(%v) = %v dropped below %v", h, c, prev)
		}
		prev = c
	}
	if prev != VeryHigh {
		t.Fatalf("ladder topped out at %v, want very-high", prev)
	}
}
