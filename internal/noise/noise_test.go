package noise

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"fivealarms/internal/rng"
)

func TestValueDeterministic(t *testing.T) {
	a := New(99)
	b := New(99)
	for i := 0; i < 100; i++ {
		x := float64(i) * 0.37
		y := float64(i) * 0.73
		if a.Value(x, y) != b.Value(x, y) {
			t.Fatalf("same seed differs at (%v,%v)", x, y)
		}
	}
}

func TestValueSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	diff := 0
	for i := 0; i < 100; i++ {
		x := float64(i) * 0.61
		if a.Value(x, x) != b.Value(x, x) {
			diff++
		}
	}
	if diff < 95 {
		t.Errorf("different seeds agreed too often: only %d/100 differ", diff)
	}
}

func TestValueRange(t *testing.T) {
	f := New(7)
	check := func(x, y float64) bool {
		v := f.Value(math.Mod(x, 1e6), math.Mod(y, 1e6))
		return v >= 0 && v < 1.0000001
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestValueContinuity(t *testing.T) {
	// Value noise must be continuous: nearby samples differ slightly.
	f := New(5)
	const eps = 1e-4
	for i := 0; i < 200; i++ {
		x := float64(i)*0.173 + 0.01
		y := float64(i)*0.311 + 0.02
		v1 := f.Value(x, y)
		v2 := f.Value(x+eps, y+eps)
		if math.Abs(v1-v2) > 0.01 {
			t.Fatalf("discontinuity at (%v,%v): %v vs %v", x, y, v1, v2)
		}
	}
}

func TestValueLatticeCorners(t *testing.T) {
	// At integer lattice points the value equals the lattice hash, so two
	// adjacent cells must agree on their shared corner.
	f := New(11)
	vFromLeft := f.Value(4.9999999, 3.5)
	vFromRight := f.Value(5.0000001, 3.5)
	if math.Abs(vFromLeft-vFromRight) > 0.001 {
		t.Errorf("cell boundary mismatch: %v vs %v", vFromLeft, vFromRight)
	}
}

func TestFBMRangeAndVariety(t *testing.T) {
	f := New(13)
	var min, max = 1.0, 0.0
	for i := 0; i < 5000; i++ {
		v := f.FBM(float64(i)*0.13, float64(i)*0.07, 5, 0.5)
		if v < 0 || v >= 1.0000001 {
			t.Fatalf("FBM out of range: %v", v)
		}
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if max-min < 0.3 {
		t.Errorf("FBM dynamic range too small: [%v, %v]", min, max)
	}
}

func TestFBMOctavesClamp(t *testing.T) {
	f := New(17)
	// octaves < 1 clamps to 1 and must not panic.
	_ = f.FBM(1.5, 2.5, 0, 0.5)
}

func BenchmarkFBM5(b *testing.B) {
	f := New(1)
	for i := 0; i < b.N; i++ {
		_ = f.FBM(float64(i)*0.01, float64(i)*0.02, 5, 0.5)
	}
}

// TestTableConformance requires Table.At to equal FBM bit for bit, at
// 0 (clamped to 1), 1 and 5 octaves, over ascending sample coordinates
// spanning negative and positive lattice units, coordinates on lattice
// lines and one ulp below them, repeated coordinates, lattice lines
// skipped between neighbours, and Resets to fewer coordinates and to
// none.
func TestTableConformance(t *testing.T) {
	f := New(99)
	src := rng.New(3)
	var xs, ys []float64
	for i := 0; i < 40; i++ {
		xs = append(xs, -3+6*src.Float64())
		ys = append(ys, 4*src.Float64()-10)
	}
	xs = append(xs, 0, 1, -1, 2.5, 2.5, 17.31/2, 1.0/16, math.Nextafter(1, 0), 40)
	ys = append(ys, 0, -11.97/4, 3, math.Nextafter(-2, 0), -30)
	slices.Sort(xs)
	slices.Sort(ys)
	for _, oct := range []int{0, 1, 5} {
		tab := f.NewTable(oct, 0.55)
		for _, n := range []int{len(xs), 9, 0} {
			tab.Reset(xs[:n], ys)
			for i, x := range xs[:n] {
				for j, y := range ys {
					if got, want := tab.At(i, j), f.FBM(x, y, oct, 0.55); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%d octaves: At(%d, %d) = %v, FBM(%v, %v) = %v", oct, i, j, got, x, y, want)
					}
				}
			}
		}
	}
}

// TestTableResetDecreasingPanics: Reset places each axis in one ordered
// walk, so a decreasing coordinate list is a caller error it reports.
func TestTableResetDecreasingPanics(t *testing.T) {
	tab := New(1).NewTable(5, 0.55)
	for _, c := range []struct{ xs, ys []float64 }{
		{[]float64{0.5, 3.5, 1.5}, []float64{0}},
		{[]float64{0}, []float64{-1, -4}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reset(%v, %v) did not panic", c.xs, c.ys)
				}
			}()
			tab.Reset(c.xs, c.ys)
		}()
	}
}
