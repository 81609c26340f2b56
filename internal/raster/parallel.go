package raster

import "runtime"

// The tiled execution model: every raster kernel decomposes its grid
// into contiguous bands (row ranges for scanline work, column ranges
// for the distance transform's first pass, word ranges for bit-level
// work) and runs them through pipeline.Bands. Band boundaries are a
// pure function of (item count, band count), each band writes a
// disjoint region of the output or a private tile merged serially in
// band order, and no band's result depends on which goroutine ran it —
// so the parallel kernels are bit-identical to the serial path at any
// GOMAXPROCS, which the diffcheck parallel drivers enforce (DESIGN.md,
// "Raster execution model").

// parallelMinCells is the grid size below which kernels stay serial:
// dispatch plus merge overhead is ~µs, so tiny grids are faster
// single-threaded and the parallel machinery only pays for itself on
// study-scale rasters.
const parallelMinCells = 1 << 14

// maxKernelBands caps the band count: more bands than this only adds
// dispatch and merge overhead with no extra hardware parallelism to
// exploit.
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
