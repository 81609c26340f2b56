// Package noise implements seeded 2-D value noise and fractal Brownian
// motion (fBm). The WHP and fuel-model generators use it to synthesize
// spatially coherent hazard surfaces: nearby locations get similar hazard,
// with realistic patchiness at several length scales.
package noise

import "math"

// Field is a deterministic 2-D scalar noise field. Safe for concurrent use.
type Field struct {
	seed uint64
}

// New returns a noise field for the given seed. Distinct seeds produce
// uncorrelated fields.
func New(seed uint64) *Field { return &Field{seed: seed} }

// hash derives a uniform [0,1) value from integer lattice coordinates.
func (f *Field) hash(x, y int64) float64 {
	h := uint64(x)*0x9e3779b97f4a7c15 ^ uint64(y)*0xc2b2ae3d27d4eb4f ^ f.seed
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return float64(h>>11) / (1 << 53)
}

// smooth is the quintic fade curve 6t^5 - 15t^4 + 10t^3.
func smooth(t float64) float64 { return t * t * t * (t*(t*6-15) + 10) }

// lattice splits a coordinate in lattice units into the lattice line at
// or below it and the fade weight toward the next line.
func lattice(v float64) (int64, float64) {
	v0 := math.Floor(v)
	return int64(v0), smooth(v - v0)
}

// lerp2 interpolates the values at a lattice cell's corners, v00 at its
// lower lines and v11 at its upper ones, by the fade weights fx and fy.
func lerp2(v00, v10, v01, v11, fx, fy float64) float64 {
	top := v00 + (v10-v00)*fx
	bot := v01 + (v11-v01)*fx
	return top + (bot-top)*fy
}

// Value returns smoothed value noise in [0, 1) at the given coordinates.
// Coordinates are in lattice units: structure size is ~1 unit.
func (f *Field) Value(x, y float64) float64 {
	ix, fx := lattice(x)
	iy, fy := lattice(y)
	return lerp2(f.hash(ix, iy), f.hash(ix+1, iy), f.hash(ix, iy+1), f.hash(ix+1, iy+1), fx, fy)
}

// shiftX and shiftY are octave o's lattice offsets: an FBM sample
// coordinate c sits at c*freq + shift in the octave's lattice, whose
// frequency is freq, so the octaves' lattices do not align.
func shiftX(o int) float64 { return float64(o) * 17.31 }
func shiftY(o int) float64 { return -float64(o) * 11.97 }

// FBM returns fractal Brownian motion: octaves layers of Value noise with
// per-octave frequency doubling (lacunarity 2) and amplitude decay gain.
// The result is normalized to [0, 1).
func (f *Field) FBM(x, y float64, octaves int, gain float64) float64 {
	if octaves < 1 {
		octaves = 1
	}
	var sum, norm float64
	amp := 1.0
	freq := 1.0
	for o := 0; o < octaves; o++ {
		sum += amp * f.Value(x*freq+shiftX(o), y*freq+shiftY(o))
		norm += amp
		amp *= gain
		freq *= 2
	}
	return sum / norm
}

// A Table is FBM tabulated over a rectilinear set of points, every x of
// one list against every y of another, as a raster's cell centres are.
// An octave's lattice column and fade weight depend on x alone and its
// lattice row and fade weight on y alone, so a Table computes them once
// per coordinate, and each octave's lattice values once over the lattice
// lines the coordinates reach. At(i, j) equals FBM(xs[i], ys[j]) bit for
// bit. Reset reuses a Table's storage for new coordinates; a Table is
// safe for concurrent reads between Resets.
type Table struct {
	f       *Field
	octaves int
	amp     []float64 // each octave's amplitude
	norm    float64   // their sum
	// cols[i*octaves+o] and rows[j*octaves+o] place xs[i] and ys[j] in
	// octave o's block of vals.
	cols, rows []tablePos
	vals       []float64 // each octave's lattice values, row-major
	// xl[o] and yl[o] are the lattice lines octave o's block spans: its
	// columns and rows; width[o] is len(xl[o]).
	xl, yl [][]int64
	width  []int
}

// tablePos places a coordinate in one octave's block of a Table: the
// offset of its lattice column (or row), and the fade weight toward the
// next.
type tablePos struct {
	off  int
	fade float64
}

// NewTable returns an empty Table of f's FBM with the given octaves and
// gain; Reset fills it.
func (f *Field) NewTable(octaves int, gain float64) *Table {
	if octaves < 1 {
		octaves = 1
	}
	t := &Table{
		f: f, octaves: octaves, amp: make([]float64, octaves),
		xl: make([][]int64, octaves), yl: make([][]int64, octaves), width: make([]int, octaves),
	}
	amp := 1.0
	for o := range t.amp {
		t.amp[o] = amp
		t.norm += amp
		amp *= gain
	}
	return t
}

// Reset tabulates the FBM over xs against ys, each nondecreasing, as a
// raster's column and row centres are. It panics on a decreasing list.
func (t *Table) Reset(xs, ys []float64) {
	t.cols = resize(t.cols, len(xs)*t.octaves)
	t.rows = resize(t.rows, len(ys)*t.octaves)
	n := 0
	freq := 1.0
	for o := 0; o < t.octaves; o++ {
		t.xl[o] = t.place(t.cols, o, xs, freq, shiftX(o), t.xl[o])
		t.yl[o] = t.place(t.rows, o, ys, freq, shiftY(o), t.yl[o])
		for k := o; k < len(t.cols); k += t.octaves {
			t.cols[k].off += n
		}
		t.width[o] = len(t.xl[o])
		for k := o; k < len(t.rows); k += t.octaves {
			t.rows[k].off *= t.width[o]
		}
		n += t.width[o] * len(t.yl[o])
		freq *= 2
	}
	t.vals = resize(t.vals, n)
	k := 0
	for o := range t.xl {
		for _, iy := range t.yl[o] {
			for _, ix := range t.xl[o] {
				t.vals[k] = t.f.hash(ix, iy)
				k++
			}
		}
	}
}

// place sets octave o's entry of each coordinate cs[i] in pos to its
// place among the lattice lines the coordinates and their successors
// reach, where c*freq + shift places a coordinate in the octave's
// lattice, and returns those lines, ascending, in lines' storage. The
// coordinates are nondecreasing, and so are their lattice lines, which
// arrive in order: one walk places every coordinate. It panics when a
// coordinate decreases.
func (t *Table) place(pos []tablePos, o int, cs []float64, freq, shift float64, lines []int64) []int64 {
	lines = lines[:0]
	for i, c := range cs {
		l, fade := lattice(c*freq + shift)
		switch n := len(lines); {
		case n > 0 && l == lines[n-2]:
		case n > 0 && l == lines[n-1]:
			lines = append(lines, l+1)
		case n == 0 || l > lines[n-1]:
			lines = append(lines, l, l+1)
		default:
			panic("noise: Table.Reset with decreasing coordinates")
		}
		pos[i*t.octaves+o] = tablePos{off: len(lines) - 2, fade: fade}
	}
	return lines
}

// At returns the FBM at (xs[i], ys[j]) of the last Reset.
func (t *Table) At(i, j int) float64 {
	n := t.octaves
	cols, rows := t.cols[i*n:][:n], t.rows[j*n:][:n]
	amp, width := t.amp[:n], t.width[:n]
	var sum float64
	for o := range n {
		c, r := cols[o], rows[o]
		k := c.off + r.off
		lo, hi := t.vals[k:][:2], t.vals[k+width[o]:][:2]
		sum += amp[o] * lerp2(lo[0], lo[1], hi[0], hi[1], c.fade, r.fade)
	}
	return sum / t.norm
}

// resize returns s with length n, reusing its storage when it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
