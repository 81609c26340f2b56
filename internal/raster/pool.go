package raster

import "sync"

// The scratch arena: sync.Pool-backed buffers behind every tiled kernel.
// Kernels draw their intermediate state — the distance transform's
// column field, the parabola-envelope buffers, scanline crossing lists,
// per-band tile words — from these pools instead of allocating per call,
// so ensemble loops that sweep many fire sets over one fixed geometry
// run with zero steady-state allocations.
//
// Pools are capacity-classed rather than literally keyed by Geometry: a
// get returns a buffer with at least the requested length, growing the
// pooled allocation the first time a larger geometry appears. Under a
// fixed geometry (the common ensemble case) every get is a hit.
//
// Ownership rule: a buffer obtained from the arena is owned exclusively
// by the goroutine that got it until it is put back, after which it must
// not be touched. Grids handed to callers (every exported kernel's
// return value) are ordinary garbage-collected allocations, never arena
// buffers — only AcquireFloatGrid exposes arena-backed grids, and
// releasing those is the caller's explicit opt-in.
var arena struct {
	floats   sync.Pool // *[]float64
	ints     sync.Pool // *[]int
	words    sync.Pool // *[]uint64
	fltGrids sync.Pool // *FloatGrid
}

// getFloats returns a float scratch buffer of length n with unspecified
// contents.
func getFloats(n int) *[]float64 {
	p, _ := arena.floats.Get().(*[]float64)
	if p == nil || cap(*p) < n {
		s := make([]float64, n)
		p = &s
	}
	*p = (*p)[:n]
	return p
}

func putFloats(p *[]float64) { arena.floats.Put(p) }

// getInts returns an int scratch buffer of length n with unspecified
// contents.
func getInts(n int) *[]int {
	p, _ := arena.ints.Get().(*[]int)
	if p == nil || cap(*p) < n {
		s := make([]int, n)
		p = &s
	}
	*p = (*p)[:n]
	return p
}

func putInts(p *[]int) { arena.ints.Put(p) }

// getWords returns a zeroed word scratch buffer of length n — the
// per-band tile masks the fill and dilation kernels accumulate into
// before the serial merge.
func getWords(n int) *[]uint64 {
	p, _ := arena.words.Get().(*[]uint64)
	if p == nil || cap(*p) < n {
		s := make([]uint64, n)
		p = &s
		return p
	}
	*p = (*p)[:n]
	clear(*p)
	return p
}

func putWords(p *[]uint64) { arena.words.Put(p) }

// AcquireFloatGrid returns a zero-filled float grid with the given
// geometry, reusing a pooled allocation when one large enough exists.
// The caller owns the grid until ReleaseFloatGrid; releasing is optional
// (an acquired grid is an ordinary value and may simply escape to the
// garbage collector), but steady-state-alloc-free loops must release.
func AcquireFloatGrid(g Geometry) *FloatGrid {
	n := g.Cells()
	f, _ := arena.fltGrids.Get().(*FloatGrid)
	if f == nil {
		return NewFloatGrid(g)
	}
	if cap(f.Data) < n {
		f.Data = make([]float64, n)
	} else {
		f.Data = f.Data[:n]
		clear(f.Data)
	}
	f.Geometry = g
	return f
}

// ReleaseFloatGrid returns a grid to the arena. The grid must not be
// used afterwards; releasing nil is a no-op.
func ReleaseFloatGrid(f *FloatGrid) {
	if f != nil {
		arena.fltGrids.Put(f)
	}
}
