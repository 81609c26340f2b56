package hot

import (
	"math"
	"testing"

	"fivealarms/internal/rng"
)

// gaussianWeights builds a smooth 2-D ignition field, the canonical HOT
// setting.
func gaussianWeights(n int) []float64 {
	// Span +-5 sigma so the ignition probabilities cover many decades —
	// the dynamic range the HOT power law lives in.
	w := make([]float64, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			dx := float64(x-n/2) / float64(n/10)
			dy := float64(y-n/2) / float64(n/10)
			w[y*n+x] = math.Exp(-(dx*dx + dy*dy) / 2)
		}
	}
	return w
}

func TestFitBasics(t *testing.T) {
	m, err := Fit(gaussianWeights(32), 100, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var pSum, rSum float64
	for i := range m.P {
		pSum += m.P[i]
		rSum += m.R[i]
	}
	if math.Abs(pSum-1) > 1e-9 {
		t.Errorf("P sums to %v", pSum)
	}
	if math.Abs(rSum-100) > 1e-6 {
		t.Errorf("R sums to %v, want budget 100", rSum)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]float64{0, 0, -1}, 1, 1, 1); err != ErrNoRegions {
		t.Errorf("err = %v", err)
	}
	// Degenerate parameters coerce to sane defaults.
	m, err := Fit([]float64{1, 2}, -5, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Beta != 1 || m.C != 1 {
		t.Errorf("defaults not applied: %+v", m)
	}
}

func TestAllocationFollowsProbability(t *testing.T) {
	// More ignition probability -> more resources -> smaller fires.
	m, err := Fit([]float64{1, 100}, 10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.R[1] <= m.R[0] {
		t.Error("likely region should get more resources")
	}
	if m.Size(1) >= m.Size(0) {
		t.Error("likely region should have smaller fires")
	}
}

func TestAllocationIsOptimal(t *testing.T) {
	// Perturbing the optimal allocation (moving resource between two
	// regions) must not reduce expected loss.
	m, err := Fit(gaussianWeights(16), 50, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := m.ExpectedLoss()
	// Pick two regions with resources.
	var i, j int = -1, -1
	for k, r := range m.R {
		if r > 1e-9 {
			if i < 0 {
				i = k
			} else {
				j = k
				break
			}
		}
	}
	if j < 0 {
		t.Fatal("not enough allocated regions")
	}
	for _, eps := range []float64{0.01, -0.01} {
		d := m.R[i] * eps
		m.R[i] -= d
		m.R[j] += d
		perturbed := m.ExpectedLoss()
		m.R[i] += d
		m.R[j] -= d
		if perturbed < base-1e-12 {
			t.Errorf("perturbation eps=%v reduced loss: %v < %v", eps, perturbed, base)
		}
	}
}

func TestSizeOutOfRange(t *testing.T) {
	m, _ := Fit([]float64{1, 1}, 2, 1, 1)
	if m.Size(-1) != 0 || m.Size(99) != 0 {
		t.Error("out-of-range sizes should be 0")
	}
}

func TestSamplePowerLawTail(t *testing.T) {
	// The HOT mechanism over a smooth 2-D probability field produces a
	// heavy-tailed size distribution: a Hill tail exponent well below
	// the thin-tail regime.
	m, err := Fit(gaussianWeights(64), 1000, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(9)
	sizes := make([]float64, 20000)
	for i := range sizes {
		sizes[i] = m.Size(m.SampleRegion(src))
	}
	alpha := TailExponent(sizes, 500)
	if alpha <= 0 {
		t.Fatal("tail exponent not estimable")
	}
	// HOT in d=2 with beta=1 predicts alpha near d/(d*beta+1)... the
	// robust claim: a genuine power law with alpha < 3 (heavy tail),
	// far from exponential.
	if alpha >= 3 {
		t.Errorf("tail exponent = %v, want heavy (< 3)", alpha)
	}
}

func TestEscapeProbability(t *testing.T) {
	m, err := Fit(gaussianWeights(32), 100, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	p0 := m.EscapeProbability(0)
	if math.Abs(p0-1) > 1e-9 {
		t.Errorf("zero threshold escape = %v, want 1", p0)
	}
	// Monotone nonincreasing in threshold.
	prev := 2.0
	for _, th := range []float64{1, 10, 100, 1000, 1e6} {
		p := m.EscapeProbability(th)
		if p > prev {
			t.Errorf("escape probability not monotone at %v", th)
		}
		prev = p
	}
	if m.EscapeProbability(math.Inf(1)) != 0 {
		t.Error("infinite threshold should have zero escape")
	}
}

func TestSampleRegionDistribution(t *testing.T) {
	m, err := Fit([]float64{1, 3}, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(11)
	n1 := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if m.SampleRegion(src) == 1 {
			n1++
		}
	}
	if f := float64(n1) / n; math.Abs(f-0.75) > 0.01 {
		t.Errorf("region 1 frequency = %v, want 0.75", f)
	}
}

func TestTailExponentKnownPareto(t *testing.T) {
	// Hill on true Pareto(1, alpha=1.5) recovers alpha.
	src := rng.New(13)
	sizes := make([]float64, 50000)
	for i := range sizes {
		sizes[i] = src.Pareto(1, 1.5)
	}
	alpha := TailExponent(sizes, 2000)
	if math.Abs(alpha-1.5) > 0.15 {
		t.Errorf("Hill estimate = %v, want ~1.5", alpha)
	}
}

func TestTailExponentDegenerate(t *testing.T) {
	if TailExponent(nil, 10) != 0 {
		t.Error("nil input")
	}
	if TailExponent([]float64{1, 2, 3}, 10) != 0 {
		t.Error("k too large")
	}
	if TailExponent(make([]float64, 100), 10) != 0 {
		t.Error("all-zero sizes")
	}
}

func BenchmarkSampleRegion(b *testing.B) {
	m, _ := Fit(gaussianWeights(64), 1000, 1, 100)
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.SampleRegion(src)
	}
}
