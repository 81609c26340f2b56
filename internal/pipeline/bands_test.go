package pipeline

import (
	"runtime"
	"sync"
	"testing"

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
