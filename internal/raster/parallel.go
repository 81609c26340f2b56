package raster

import (
	"math/bits"
	"runtime"

	"fivealarms/internal/pipeline"
)

// The banded execution model: every raster kernel decomposes its grid
// into contiguous bands (row ranges for scanline work, column ranges
// for the distance transform's first pass, word ranges for bit-level
// work) and runs them through pipeline.Bands. Band boundaries are a
// pure function of (item count, band count), each band owns whole
// words of its output and writes them directly, and no band's result
// depends on which goroutine ran it — so the parallel kernels are
// bit-identical to the serial path at any GOMAXPROCS, which the
// diffcheck parallel drivers enforce (DESIGN.md, "Raster execution
// model").

// parallelMinCells is the grid size below which kernels stay serial:
// dispatch overhead is ~µs, so tiny grids are faster single-threaded
// and the parallel machinery only pays for itself on study-scale
// rasters.
const parallelMinCells = 1 << 14

// maxKernelBands caps the band count: more bands than this only adds
// dispatch overhead with no extra hardware parallelism to exploit.
const maxKernelBands = 256

// kernelBands returns the band count for items work units on a
// cells-sized grid: one band below parallelMinCells, else GOMAXPROCS
// capped at maxKernelBands and at items, so every band is non-empty.
func kernelBands(cells, items int) int {
	if cells < parallelMinCells {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), maxKernelBands, items)
}

// rowGroup returns the fewest rows of an nx-wide grid whose cells fill
// whole 64-bit words: 64 >> min(trailing zeros of nx, 6). BitGrid packs
// rows back to back, so rows cut at multiples of rowGroup start and end
// on word boundaries.
func rowGroup(nx int) int {
	return 64 >> min(bits.TrailingZeros(uint(nx)), 6)
}

// rowBands runs fn over the rows of g in bands of whole row groups and
// passes each band its half-open row range, so no two bands share a
// word of a BitGrid on g and each may write its rows of one in place.
func rowBands(g Geometry, fn func(lo, hi int)) {
	group := rowGroup(g.NX)
	groups := (g.NY + group - 1) / group
	pipeline.Bands(pipeline.BandFunc(func(_, lo, hi int) {
		fn(lo*group, min(hi*group, g.NY))
	}), groups, kernelBands(g.Cells(), groups))
}
