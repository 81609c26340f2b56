package raster

import "sync"

// The package keeps two sync.Pools, one per kind of scratch that the
// study reuses often enough to pool. floatGrids, here, holds the
// distance transform's grid-sized float scratch: every transform's
// column distances and DilateByDistance's distance field. The tracer
// pool in contour.go holds TraceContours' vertex table, reused by every
// fire's trace. Everything else a kernel needs — the fill's crossing
// list and row ranges, the row pass's envelope — is allocated per call,
// and every grid a kernel returns is an ordinary allocation.
//
// A buffer taken from a pool belongs to the goroutine that took it
// until it is put back, after which it must not be touched.
var floatGrids sync.Pool // *[]float64

// getFloats returns a float scratch buffer of length n with unspecified
// contents, which the borrower must overwrite before reading. A pooled
// buffer too small for n is dropped for a new one.
func getFloats(n int) *[]float64 {
	p, _ := floatGrids.Get().(*[]float64)
	if p == nil || cap(*p) < n {
		s := make([]float64, n)
		p = &s
	}
	*p = (*p)[:n]
	return p
}

func putFloats(p *[]float64) { floatGrids.Put(p) }
