package wildfire

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fivealarms/internal/faults"
	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
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
// number of polls. SimulateHistory polls once inside each season's band,
// before the season starts, so with one goroutine running the bands in
// order the budget below deterministically allows exactly one season
// before cancellation lands at the season boundary.
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
// is never started, and the partial count is reported — never a partial
// slice. GOMAXPROCS=1 runs the bands on the one goroutine the poll
// budget assumes.
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

// historyGolden is the FNV-64a hash historyHash gives the 2000-2018
// history and the 2019 season on the test world (seed 42, 12 mapped
// fires per season). Any change to a fire's draws, cells, rings or
// hole assignment moves it.
const historyGolden uint64 = 0xa195c9956b1828bd

// TestHistoryGolden pins every fire of the history and the 2019 season:
// every field, every perimeter coordinate, and which polygon each hole
// belongs to.
func TestHistoryGolden(t *testing.T) {
	seasons, err := SimulateHistory(context.Background(), testSim, 42, 12)
	if err != nil {
		t.Fatal(err)
	}
	seasons = append(seasons, Simulate2019(testSim, 42, 12))
	if got := historyHash(seasons); got != historyGolden {
		t.Fatalf("history hash = %#x, want %#x", got, historyGolden)
	}
}

// TestPerimetersRefillBurnedCells traces every fire of the history and
// the 2019 season and requires the perimeter to rasterize back onto the
// fire's window as exactly its burned cells: every hole sits in the
// polygon around it, and no island swallows its surroundings.
func TestPerimetersRefillBurnedCells(t *testing.T) {
	var fires atomic.Int64
	sim := *testSim
	sim.onBurn = func(f *Fire, burned *raster.BitGrid) {
		fires.Add(1)
		refill := raster.NewBitGrid(burned.Geometry)
		raster.FillPolygonsInto(refill, f.Perimeter)
		outside := refill.Clone()
		if err := outside.AndNot(burned); err != nil {
			t.Error(err)
		}
		if outside.Count() != 0 || refill.Count() != burned.Count() {
			t.Errorf("%s: perimeter refills %d cells, %d outside the %d burned",
				f.Name, refill.Count(), outside.Count(), burned.Count())
		}
	}
	if _, err := SimulateHistory(context.Background(), &sim, 42, 12); err != nil {
		t.Fatal(err)
	}
	Simulate2019(&sim, 42, 12)
	if fires.Load() == 0 {
		t.Fatal("no fire reached the burn hook")
	}
}

// historyHash folds every season and fire field, and every perimeter
// coordinate with its ring and polygon structure, into one FNV-64a hash.
func historyHash(seasons []*Season) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	i := func(v int) { u(uint64(v)) }
	f := func(v float64) { u(math.Float64bits(v)) }
	ring := func(r geom.Ring) {
		i(len(r))
		for _, p := range r {
			f(p.X)
			f(p.Y)
		}
	}
	for _, s := range seasons {
		i(s.Year)
		i(s.TotalFires)
		f(s.TotalAcres)
		i(len(s.Mapped))
		for k := range s.Mapped {
			fire := &s.Mapped[k]
			i(fire.ID)
			i(len(fire.Name))
			h.Write([]byte(fire.Name))
			i(fire.Year)
			i(fire.StartDay)
			i(fire.EndDay)
			f(fire.Acres)
			f(fire.Ignition.X)
			f(fire.Ignition.Y)
			i(fire.StateIdx)
			if fire.RoadCorridor {
				i(1)
			} else {
				i(0)
			}
			f(fire.WindDeg)
			i(len(fire.Perimeter))
			for _, pg := range fire.Perimeter {
				ring(pg.Exterior)
				i(len(pg.Holes))
				for _, hole := range pg.Holes {
					ring(hole)
				}
			}
		}
	}
	return h.Sum64()
}
