package wildfire

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fivealarms/internal/faults"
)

// historyAt simulates the 2000-2018 seasons at GOMAXPROCS procs.
func historyAt(t *testing.T, procs int, seed uint64, mappedPerSeason int) []*Season {
	t.Helper()
	var seasons []*Season
	var err error
	faults.WithGOMAXPROCS(procs, func() {
		seasons, err = SimulateHistory(context.Background(), testSim, seed, mappedPerSeason)
	})
	if err != nil {
		t.Fatal(err)
	}
	return seasons
}

// The parallel history must be bit-identical to the serial one: every
// season draws from its own rng stream, so scheduling cannot leak into
// the results.
func TestSimulateHistoryParallelMatchesSerial(t *testing.T) {
	serial := historyAt(t, 1, 7, 4)
	parallel := historyAt(t, 4, 7, 4)
	if len(serial) != len(parallel) {
		t.Fatalf("season counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.Year != b.Year || a.TotalFires != b.TotalFires || a.TotalAcres != b.TotalAcres {
			t.Fatalf("season %d statistics differ: %+v vs %+v", i, a, b)
		}
		if len(a.Mapped) != len(b.Mapped) {
			t.Fatalf("season %d mapped counts differ: %d vs %d", i, len(a.Mapped), len(b.Mapped))
		}
		for j := range a.Mapped {
			fa, fb := &a.Mapped[j], &b.Mapped[j]
			if fa.Acres != fb.Acres || fa.Ignition != fb.Ignition ||
				fa.Name != fb.Name || fa.StartDay != fb.StartDay {
				t.Fatalf("season %d fire %d differs: %+v vs %+v", i, j, fa, fb)
			}
			// Table 1 joins against the perimeters.
			if !reflect.DeepEqual(fa.Perimeter, fb.Perimeter) {
				t.Fatalf("season %d fire %d perimeter differs", i, j)
			}
		}
	}
}

// GOMAXPROCS beyond the 19 seasons clamps the fan-out to one goroutine
// per season and produces the same ordered output as the default.
func TestSimulateHistoryParallelWorkerBounds(t *testing.T) {
	a := historyAt(t, 100, 3, 2)
	b := historyAt(t, runtime.GOMAXPROCS(0), 3, 2)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Year != b[i].Year || a[i].MappedAcres() != b[i].MappedAcres() {
			t.Fatalf("season %d differs across GOMAXPROCS settings", i)
		}
	}
}

// A pre-cancelled context simulates nothing and returns ctx.Err() with
// the progress count; no partial history escapes.
func TestSimulateHistoryContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seasons, err := SimulateHistory(ctx, testSim, 7, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if seasons != nil {
		t.Fatal("cancelled history returned a partial season slice")
	}
	if !strings.Contains(err.Error(), "0 of 19") {
		t.Errorf("error lacks progress info: %v", err)
	}
}

// errAfterCalls is a context whose Err flips to Canceled after a fixed
// number of polls. Workers poll once before claiming each season, so
// with one worker the budget below deterministically allows exactly one
// season before cancellation lands at the season boundary.
type errAfterCalls struct {
	context.Context
	mu        sync.Mutex
	remaining int
}

func (c *errAfterCalls) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining > 0 {
		c.remaining--
		return nil
	}
	return context.Canceled
}

// Cancellation between seasons: the first season completes, the second
// is never claimed, and the partial count is reported — never a partial
// slice. GOMAXPROCS=1 runs the one worker the poll budget assumes.
func TestSimulateHistoryContextCancelBetweenSeasons(t *testing.T) {
	ctx := &errAfterCalls{Context: context.Background(), remaining: 1}
	var seasons []*Season
	var err error
	faults.WithGOMAXPROCS(1, func() {
		seasons, err = SimulateHistory(ctx, testSim, 7, 2)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if seasons != nil {
		t.Fatal("cancelled history returned a partial season slice")
	}
	if !strings.Contains(err.Error(), "1 of 19") {
		t.Errorf("error lacks season-boundary progress: %v", err)
	}
}
