// Package hot implements the highly-optimized-tolerance (HOT) wildfire
// model of Moritz et al. (2005), the framework the paper's §3.11 proposes
// integrating for regionalized escape probabilities.
//
// HOT derives heavy-tailed event sizes from optimal resource allocation:
// a fire manager distributes a fixed suppression budget across regions to
// minimize expected burned area. With per-region ignition probability p_i
// and burned area A_i = c * r_i^(-beta) under allocated resource r_i,
// minimizing sum(p_i A_i) subject to sum(r_i) = R yields
//
//	r_i ∝ p_i^(1/(1+beta))
//
// so rarely-igniting regions get few resources and produce the occasional
// enormous fire — a power-law size distribution without any per-fire
// tuning. The model also yields the "escape probability": the chance an
// ignition exceeds the initial-attack containment size in its region.
package hot

import (
	"errors"
	"math"
	"sort"

	"fivealarms/internal/rng"
)

// ErrNoRegions is returned when a model is fit over no usable regions.
var ErrNoRegions = errors.New("hot: no regions with positive ignition probability")

// Model is a fitted HOT allocation.
type Model struct {
	// P is the normalized ignition probability per region.
	P []float64
	// R is the optimal resource allocation per region (sums to the
	// budget).
	R []float64
	// Beta is the suppression-effectiveness exponent (A ∝ r^-beta).
	Beta float64
	// C is the burned-area scale constant.
	C float64

	cdf []float64
}

// Fit computes the optimal allocation for the given unnormalized ignition
// weights, total resource budget, effectiveness exponent beta (> 0) and
// area scale c (> 0).
func Fit(ignition []float64, budget, beta, c float64) (*Model, error) {
	if beta <= 0 {
		beta = 1
	}
	if c <= 0 {
		c = 1
	}
	if budget <= 0 {
		budget = 1
	}
	var total float64
	for _, p := range ignition {
		if p > 0 {
			total += p
		}
	}
	if total == 0 {
		return nil, ErrNoRegions
	}
	m := &Model{
		P:    make([]float64, len(ignition)),
		R:    make([]float64, len(ignition)),
		Beta: beta,
		C:    c,
	}
	exp := 1 / (1 + beta)
	var rSum float64
	for i, p := range ignition {
		if p <= 0 {
			continue
		}
		m.P[i] = p / total
		m.R[i] = math.Pow(m.P[i], exp)
		rSum += m.R[i]
	}
	for i := range m.R {
		m.R[i] *= budget / rSum
	}
	m.cdf = make([]float64, len(m.P))
	var acc float64
	for i, p := range m.P {
		acc += p
		m.cdf[i] = acc
	}
	return m, nil
}

// Size returns the burned area of an event igniting in region i.
func (m *Model) Size(i int) float64 {
	if i < 0 || i >= len(m.R) || m.R[i] == 0 {
		return 0
	}
	return m.C * math.Pow(m.R[i], -m.Beta)
}

// ExpectedLoss returns the expected burned area per ignition under the
// current allocation.
func (m *Model) ExpectedLoss() float64 {
	var e float64
	for i, p := range m.P {
		if p > 0 {
			e += p * m.Size(i)
		}
	}
	return e
}

// SampleRegion draws a region index with probability P.
func (m *Model) SampleRegion(src *rng.Source) int {
	u := src.Float64()
	lo, hi := 0, len(m.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if m.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// EscapeProbability returns the probability an ignition produces a fire
// larger than threshold — the §3.11 "escape probability" as a function of
// containment capability.
func (m *Model) EscapeProbability(threshold float64) float64 {
	var p float64
	for i, pi := range m.P {
		if pi > 0 && m.Size(i) > threshold {
			p += pi
		}
	}
	if p > 1 { // floating-point accumulation guard
		p = 1
	}
	return p
}

// TailExponent estimates the power-law tail exponent alpha of the size
// distribution (P(X > x) ~ x^-alpha) with the Hill estimator over the top
// k order statistics of the sampled sizes. Returns 0 for insufficient
// data.
func TailExponent(sizes []float64, k int) float64 {
	n := len(sizes)
	if k < 2 || n < k+1 {
		return 0
	}
	s := make([]float64, n)
	copy(s, sizes)
	sort.Float64s(s)
	// Top k values s[n-k:], threshold s[n-k-1].
	xk := s[n-k-1]
	if xk <= 0 {
		return 0
	}
	var sum float64
	for _, v := range s[n-k:] {
		sum += math.Log(v / xk)
	}
	if sum == 0 {
		return 0
	}
	return float64(k) / sum
}
