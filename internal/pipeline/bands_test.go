package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fivealarms/internal/faults"
)

// bandCall is one RunBand invocation.
type bandCall struct{ band, lo, hi int }

func TestBandsRunEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			for _, bands := range []int{0, 1, 2, 3, 5, 64, 2000} {
				var mu sync.Mutex
				var calls []bandCall
				runs := make([]int, n)
				faults.WithGOMAXPROCS(procs, func() {
					Bands(BandFunc(func(band, lo, hi int) {
						mu.Lock()
						defer mu.Unlock()
						calls = append(calls, bandCall{band, lo, hi})
						for i := lo; i < hi; i++ {
							runs[i]++
						}
					}), n, bands)
				})
				for i, r := range runs {
					if r != 1 {
						t.Fatalf("GOMAXPROCS=%d n=%d bands=%d: index %d ran %d times", procs, n, bands, i, r)
					}
				}
				// One inline band over [0, n) when there is nothing to
				// split, else every band once over its BandRange.
				want := map[bandCall]bool{{0, 0, n}: true}
				if bands > 1 && n > 1 {
					want = map[bandCall]bool{}
					for b := 0; b < bands; b++ {
						lo, hi := BandRange(b, n, bands)
						want[bandCall{b, lo, hi}] = true
					}
				}
				if len(calls) != len(want) {
					t.Fatalf("GOMAXPROCS=%d n=%d bands=%d: %d band calls, want %d", procs, n, bands, len(calls), len(want))
				}
				for _, c := range calls {
					if !want[c] {
						t.Fatalf("GOMAXPROCS=%d n=%d bands=%d: unexpected or repeated band call %+v", procs, n, bands, c)
					}
					delete(want, c)
				}
			}
		}
	}
}

func TestBandsLeaveNoGoroutines(t *testing.T) {
	check := faults.CheckGoroutines(t)
	faults.WithGOMAXPROCS(4, func() {
		for _, bands := range []int{2, 4, 64} {
			Bands(BandFunc(func(int, int, int) {}), 1000, bands)
		}
	})
	check()
}

// sumTask adds up its items per band; a pointer to it is an interface
// value that boxes nothing.
type sumTask struct {
	items []int
	sums  []int
}

func (t *sumTask) RunBand(band, lo, hi int) {
	s := 0
	for _, v := range t.items[lo:hi] {
		s += v
	}
	t.sums[band] = s
}

func TestBandsWarmDispatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled fan-outs at random")
	}
	const bands = 8
	task := &sumTask{items: make([]int, 1000), sums: make([]int, bands)}
	var bt BandTask = task
	// AllocsPerRun measures at GOMAXPROCS=1; the dispatch sets 4 itself
	// so helpers start.
	dispatch := func() {
		faults.WithGOMAXPROCS(4, func() { Bands(bt, len(task.items), bands) })
	}
	dispatch()
	dispatch()
	runtime.GC()
	if allocs := testing.AllocsPerRun(50, dispatch); allocs > 0 {
		t.Errorf("warm Bands dispatch allocates %.1f times per run, want 0", allocs)
	}
}

// goid returns the calling goroutine's ID from its stack header.
func goid() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return strings.Fields(string(buf[:n]))[1]
}

// bandPanicValue is what a victim band panics with.
const bandPanicValue = "band fault"

// panickyBands is a fan-out whose bands panic on the victim goroutine:
// the caller of Bands, or any helper. Every band counts itself in
// running while it runs; a band on a helper first lingers so that a
// Bands that stopped waiting for its helpers would return while they
// still run. When the helpers are the victims, the caller's bands wait
// until one has started, so a helper is sure to run a band.
type panickyBands struct {
	caller   string
	onHelper bool
	helped   chan struct{}
	once     sync.Once
	running  atomic.Int32
	ran      atomic.Int32
}

func (p *panickyBands) RunBand(int, int, int) {
	p.running.Add(1)
	defer p.running.Add(-1)
	p.ran.Add(1)
	onCaller := goid() == p.caller
	if !onCaller {
		p.once.Do(func() { close(p.helped) })
		time.Sleep(time.Millisecond)
	}
	if onCaller != p.onHelper {
		panicBand()
	}
	if onCaller && p.onHelper {
		<-p.helped
	}
}

// panicBand is the frame a band panics in; the PanicError's stack must
// name it.
func panicBand() { panic(bandPanicValue) }

// TestBandsContainPanics: a band that panics on the caller or on a
// helper makes Bands panic on the caller with a *BandPanic, only after
// every band has stopped running; no goroutine survives, and a graph
// task around the fan-out returns a *PanicError naming the task, with
// the band's value and the stack of the frame that panicked. At
// GOMAXPROCS=1 the caller runs every band, and the panic stops further
// claims.
func TestBandsContainPanics(t *testing.T) {
	const bands = 16
	for _, procs := range []int{1, 2, 4} {
		for _, onHelper := range []bool{false, true} {
			if onHelper && procs == 1 {
				continue // no helper runs at GOMAXPROCS=1
			}
			at := fmt.Sprintf("GOMAXPROCS=%d helper=%v", procs, onHelper)
			check := faults.CheckGoroutines(t)
			var p *panickyBands
			fresh := func() BandTask {
				p = &panickyBands{caller: goid(), onHelper: onHelper, helped: make(chan struct{})}
				return p
			}
			var v any
			faults.WithGOMAXPROCS(procs, func() {
				defer func() { v = recover() }()
				Bands(fresh(), bands, bands)
			})
			bp, ok := v.(*BandPanic)
			if !ok || bp.Value != bandPanicValue {
				t.Fatalf("%s: Bands panicked with %#v, want a *BandPanic of %q", at, v, bandPanicValue)
			}
			if n := p.running.Load(); n != 0 {
				t.Errorf("%s: %d bands still running after Bands panicked", at, n)
			}
			if procs == 1 && p.ran.Load() != 1 {
				t.Errorf("%s: %d bands ran, want the panicking one alone", at, p.ran.Load())
			}

			var err error
			faults.WithGOMAXPROCS(procs, func() {
				g := New()
				g.Add("fanout", func() error {
					Bands(fresh(), bands, bands)
					return nil
				})
				err = g.Run()
			})
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Task != "fanout" || pe.Value != bandPanicValue {
				t.Fatalf("%s: graph run returned %v, want a PanicError of task fanout", at, err)
			}
			if !strings.Contains(string(pe.Stack), "panicBand") {
				t.Errorf("%s: PanicError stack does not show the panicking band:\n%s", at, pe.Stack)
			}
			if n := p.running.Load(); n != 0 {
				t.Errorf("%s: %d bands still running after the task failed", at, n)
			}
			check()
		}
	}
}

// TestBandsNestedPanicKeepsInnerStack: a panic in a nested fan-out
// reaches the outer caller as the inner *BandPanic, so the stack stays
// the one where the innermost band panicked.
func TestBandsNestedPanicKeepsInnerStack(t *testing.T) {
	var v any
	faults.WithGOMAXPROCS(2, func() {
		defer func() { v = recover() }()
		Bands(BandFunc(func(outer, _, _ int) {
			Bands(BandFunc(func(inner, _, _ int) {
				if outer == 1 && inner == 2 {
					panicBand()
				}
			}), 4, 4)
		}), 2, 2)
	})
	bp, ok := v.(*BandPanic)
	if !ok || bp.Band != 2 || bp.Value != bandPanicValue || !strings.Contains(string(bp.Stack), "panicBand") {
		t.Fatalf("nested fan-out panicked with %#v", v)
	}
	if msg := bp.Error(); !strings.Contains(msg, bandPanicValue) {
		t.Errorf("BandPanic message %q does not name the band's value", msg)
	}
}
