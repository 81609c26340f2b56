package raster

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The tiled execution model: every raster kernel decomposes its grid
// into contiguous bands (row ranges for scanline work, column ranges
// for the distance transform's first pass, word ranges for bit-level
// work) and runs the bands on goroutines scoped to the kernel call.
// Band boundaries are a pure function of (item count, band count), each
// band writes a disjoint region of the output or a private tile merged
// serially in band order, and no band's result depends on which
// goroutine ran it — so the parallel kernels are bit-identical to the
// serial path at any GOMAXPROCS, which the diffcheck parallel drivers
// enforce (DESIGN.md, "Raster execution model").

// A bandTask is one kernel invocation's banded execution: runBand
// processes the half-open range [lo, hi) of band index `band`.
type bandTask interface {
	runBand(band, lo, hi int)
}

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

// fanout is one runBands call's shared state: the caller and its
// helper goroutines claim band indices from next until none remain.
// Fan-outs are pooled so a warm kernel dispatch allocates nothing.
type fanout struct {
	wg       sync.WaitGroup
	next     atomic.Int64
	t        bandTask
	n, bands int
	// help is f.helpAndDone bound once when the fan-out is created:
	// `go f.help()` on a stored no-argument func starts a goroutine
	// without allocating, where a method call or an argument would
	// allocate a closure per spawn.
	help func()
}

var fanoutPool = sync.Pool{New: func() any {
	f := new(fanout)
	f.help = f.helpAndDone
	return f
}}

func (f *fanout) helpAndDone() {
	defer f.wg.Done()
	f.claim()
}

// claim runs bands until the counter passes the last one.
func (f *fanout) claim() {
	for {
		b := int(f.next.Add(1)) - 1
		if b >= f.bands {
			return
		}
		lo, hi := bandRange(b, f.n, f.bands)
		f.t.runBand(b, lo, hi)
	}
}

// runBands executes t over [0, n) split into bands contiguous ranges:
// band b covers [b*n/bands, (b+1)*n/bands). The calling goroutine and
// up to GOMAXPROCS-1 helpers claim bands from one counter; every helper
// has exited before runBands returns, and every band's writes are
// visible to the caller.
func runBands(t bandTask, n, bands int) {
	if bands <= 1 || n <= 1 {
		t.runBand(0, 0, n)
		return
	}
	f := fanoutPool.Get().(*fanout)
	f.t, f.n, f.bands = t, n, bands
	f.next.Store(0)
	helpers := min(bands, runtime.GOMAXPROCS(0)) - 1
	f.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		go f.help() //fivealarms:allow(goroleak) help is helpAndDone, which signals f.wg; runBands waits on f.wg before returning
	}
	f.claim()
	f.wg.Wait()
	f.t = nil
	fanoutPool.Put(f)
}

// bandRange returns the [lo, hi) range of band b when n items split
// into bands bands — the same arithmetic runBands uses, exposed so
// merge phases can locate each band's tile.
func bandRange(b, n, bands int) (lo, hi int) {
	return b * n / bands, (b + 1) * n / bands
}
