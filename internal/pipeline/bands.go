package pipeline

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// A BandTask is the work of one banded fan-out: RunBand processes the
// half-open item range [lo, hi) of band index band.
type BandTask interface {
	RunBand(band, lo, hi int)
}

// BandFunc adapts a function to a BandTask.
type BandFunc func(band, lo, hi int)

// RunBand calls f(band, lo, hi).
func (f BandFunc) RunBand(band, lo, hi int) { f(band, lo, hi) }

// BandPanic is the value Bands re-panics with on its caller when a band
// of a split fan-out panicked: the band, the value it panicked with and
// the stack of the goroutine that ran it, taken where it panicked. A
// graph task that panics with a BandPanic reports its Value and Stack in
// the task's PanicError.
type BandPanic struct {
	Band  int
	Value any
	Stack []byte
}

func (p *BandPanic) Error() string {
	return fmt.Sprintf("pipeline: band %d panicked: %v", p.Band, p.Value)
}

// fanout is one Bands call's shared state: the caller and its helper
// goroutines claim band indices from next until none remain. Fan-outs
// are pooled so a warm dispatch allocates nothing.
type fanout struct {
	wg       sync.WaitGroup
	next     atomic.Int64
	t        BandTask
	n, bands int
	// help is f.helpAndDone bound once when the fan-out is created:
	// `go f.help()` on a stored no-argument func starts a goroutine
	// without allocating, where a method call or an argument would
	// allocate a closure per spawn.
	help func()

	mu       sync.Mutex
	panicked *BandPanic // the first band panic, guarded by mu
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

// claim runs bands until the counter passes the last one or a band
// panics.
func (f *fanout) claim() {
	b := -1
	defer f.catch(&b)
	for {
		b = int(f.next.Add(1)) - 1
		if b >= f.bands {
			return
		}
		lo, hi := BandRange(b, f.n, f.bands)
		f.t.RunBand(b, lo, hi)
	}
}

// catch recovers a panic of band *b, keeps the first one for Bands to
// re-raise and stops further claims. A BandPanic from a nested fan-out
// is kept as it is, so its stack stays the innermost one.
func (f *fanout) catch(b *int) {
	v := recover()
	if v == nil {
		return
	}
	f.next.Store(int64(f.bands))
	p, ok := v.(*BandPanic)
	if !ok {
		p = &BandPanic{Band: *b, Value: v, Stack: debug.Stack()}
	}
	f.mu.Lock()
	if f.panicked == nil {
		f.panicked = p
	}
	f.mu.Unlock()
}

// Bands runs t over [0, n) split into bands contiguous ranges, band b
// covering BandRange(b, n, bands). The calling goroutine and up to
// GOMAXPROCS-1 helpers claim bands from one counter; every helper has
// exited before Bands returns, and every band's writes are visible to
// the caller. With bands <= 1 or n <= 1, t runs band 0 over [0, n)
// inline, so it is called even for n = 0: index items by [lo, hi),
// never by band. A task whose bands write disjoint state gets the same
// result at any GOMAXPROCS.
//
// A band that panics stops further claims. Bands then waits for the
// bands already running, on the caller and on every helper, and panics
// on the caller with a *BandPanic holding the first band panic, so no
// helper outlives the call even when it fails. The inline path panics
// with the band's own value.
func Bands(t BandTask, n, bands int) {
	if bands <= 1 || n <= 1 {
		t.RunBand(0, 0, n)
		return
	}
	f := fanoutPool.Get().(*fanout)
	f.t, f.n, f.bands = t, n, bands
	f.next.Store(0)
	helpers := min(bands, runtime.GOMAXPROCS(0)) - 1
	f.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		go f.help() //fivealarms:allow(goroleak) help is helpAndDone, which signals f.wg; Bands waits on f.wg before returning
	}
	f.claim()
	f.wg.Wait()
	p := f.panicked
	f.t, f.panicked = nil, nil
	fanoutPool.Put(f)
	if p != nil {
		panic(p)
	}
}

// BandRange returns the [lo, hi) range of band b when n items split
// into bands bands: [b*n/bands, (b+1)*n/bands). Merge phases use it to
// locate each band's tile.
func BandRange(b, n, bands int) (lo, hi int) {
	return b * n / bands, (b + 1) * n / bands
}
