// Package rng provides a deterministic, allocation-free pseudo-random
// number generator and the sampling distributions the synthetic data
// generators rely on. Every generator in the fivealarms repository takes an
// explicit *rng.Source so that a given seed reproduces an identical world
// across machines and Go versions — a requirement the stdlib does not
// guarantee across releases for all of math/rand's helper methods.
//
// The core generator is PCG-XSH-RR 64/32 (O'Neill 2014) seeded through
// SplitMix64, a combination with good statistical quality and a tiny state.
package rng

import "math"

// Source is a deterministic PCG32 random number generator. The zero value
// is NOT usable; construct with New.
type Source struct {
	state uint64
	inc   uint64
}

// New returns a Source seeded deterministically from seed. Distinct seeds
// yield independent-looking streams.
func New(seed uint64) *Source {
	s := &Source{}
	s.Reseed(seed)
	return s
}

// NewStream returns a Source on an independent stream: two sources with the
// same seed but different stream IDs produce uncorrelated sequences. Use it
// to give each subsystem (fires, transceivers, counties, ...) its own
// stream from one master seed.
func NewStream(seed, stream uint64) *Source {
	s := &Source{}
	sm := splitMix64(seed)
	s.state = splitMix64(sm ^ 0x9e3779b97f4a7c15)
	s.inc = (splitMix64(stream)<<1 | 1)
	s.Uint32() // advance once to decorrelate
	return s
}

// Reseed resets the source to the deterministic state for seed.
func (s *Source) Reseed(seed uint64) {
	s.state = splitMix64(seed)
	s.inc = (splitMix64(seed^0xda3e39cb94b95bdb)<<1 | 1)
	s.Uint32()
}

func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pcgMul is the PCG32 state multiplier a: each Uint32 steps the state
// to state·a + inc. pcgMul2 is a² modulo 2⁶⁴, the multiplier of two
// steps.
const (
	pcgMul  = 6364136223846793005
	pcgMul2 = pcgMul * pcgMul % (1 << 64)
)

// Uint32 returns the next 32 random bits.
func (s *Source) Uint32() uint32 {
	old := s.state
	s.state = old*pcgMul + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	return uint64(s.Uint32())<<32 | uint64(s.Uint32())
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// SkipFloat64 advances s past one Float64 without computing it: the two
// Uint32 steps it takes, (state·a + inc)·a + inc, fold into
// state·a² + inc·(a+1).
func (s *Source) SkipFloat64() {
	s.state = s.state*pcgMul2 + s.inc*(pcgMul+1)
}

// Intn returns a uniform int in [0, n). It panics when n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint32(n)
	for {
		v := s.Uint32()
		prod := uint64(v) * uint64(bound)
		low := uint32(prod)
		if low >= bound || low >= (-bound)%bound {
			return int(prod >> 32)
		}
	}
}

// Range returns a uniform float64 in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

// Normal returns a normally distributed float64 with the given mean and
// standard deviation (Box-Muller, polar form).
func (s *Source) Normal(mean, stddev float64) float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Exponential returns an exponentially distributed float64 with the given
// mean (= 1/rate).
func (s *Source) Exponential(mean float64) float64 {
	return -mean * math.Log(1-s.Float64())
}

// Pareto returns a Pareto(xm, alpha) variate: xm * U^(-1/alpha). Heavy
// tails for alpha <= 2; fire sizes in the HOT framework follow this family.
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := 1 - s.Float64() // (0, 1]
	return xm * math.Pow(u, -1/alpha)
}

// TruncatedPareto returns a Pareto(xm, alpha) variate truncated to
// [xm, cap] by inverse-CDF sampling of the truncated distribution (not by
// rejection, so it never loops).
func (s *Source) TruncatedPareto(xm, cap, alpha float64) float64 {
	if cap <= xm {
		return xm
	}
	u := s.Float64()
	hc := math.Pow(xm/cap, alpha)
	return xm * math.Pow(1-u*(1-hc), -1/alpha)
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation above 30.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := s.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// CategoricalTable samples indices in proportion to a fixed weight
// vector. Each draw binary-searches a running sum instead of rescanning
// the weights, and returns the same index as Source.Categorical over
// those weights from the same Source state.
type CategoricalTable struct {
	// cum[i] is the sum of the positive weights in [0, i], for every i
	// before the first NaN weight.
	cum   []float64
	total float64 // the sum of every positive weight
	last  int     // the index returned when no running sum exceeds a draw
}

// NewCategorical precomputes a table over weights, which should be
// non-negative. As in Categorical, zero and negative weights add
// nothing to the running sum.
func NewCategorical(weights []float64) *CategoricalTable {
	// Categorical's scan adds a NaN weight into its running sum, after
	// which no draw stops before the last index: the table ends there.
	n := len(weights)
	for i, w := range weights {
		if math.IsNaN(w) {
			n = i
			break
		}
	}
	t := &CategoricalTable{cum: make([]float64, n), last: len(weights) - 1}
	// The additions run in Categorical's order under its w > 0 test, so
	// total equals its total bit for bit.
	for i, w := range weights {
		if w > 0 {
			t.total += w
		}
		if i < n {
			t.cum[i] = t.total
		}
	}
	return t
}

// Sample draws an index, consuming exactly the randomness Categorical
// would: none when the total weight is not positive (it returns 0),
// one Float64 otherwise.
func (t *CategoricalTable) Sample(s *Source) int {
	if !(t.total > 0) {
		return 0
	}
	u := s.Float64() * t.total
	// The first running sum above u is where Categorical's scan stops:
	// the sums never decrease, and a skipped weight repeats the sum
	// before it, so its index is never the first one above u.
	lo, hi := 0, len(t.cum)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(t.cum) {
		return t.last
	}
	return lo
}

// Categorical samples an index from the given non-negative weights. Zero
// total weight returns 0. For repeated draws over the same weights use
// NewCategorical.
func (s *Source) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	u := s.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
