package pipeline

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fivealarms/internal/faults"
)

// newGraph makes a graph at GOMAXPROCS procs, which bounds how many of
// its tasks run at once.
func newGraph(procs int) (g *Graph) {
	faults.WithGOMAXPROCS(procs, func() { g = New() })
	return g
}

func TestGraphRunsAllTasksOnce(t *testing.T) {
	for _, workers := range []int{3, 1} {
		var counts [5]int32
		g := newGraph(workers)
		g.Add("a", func() error { atomic.AddInt32(&counts[0], 1); return nil })
		g.Add("b", func() error { atomic.AddInt32(&counts[1], 1); return nil }, "a")
		g.Add("c", func() error { atomic.AddInt32(&counts[2], 1); return nil }, "a")
		g.Add("d", func() error { atomic.AddInt32(&counts[3], 1); return nil }, "b", "c")
		g.Add("e", func() error { atomic.AddInt32(&counts[4], 1); return nil })
		if err := g.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Errorf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestGraphRespectsDependencies(t *testing.T) {
	// The dependency edge must be a happens-before edge: "child" observes
	// the parent's write without any synchronization of its own.
	for trial := 0; trial < 50; trial++ {
		var parentDone bool
		var observed bool
		g := newGraph(8)
		g.Add("parent", func() error { parentDone = true; return nil })
		g.Add("child", func() error { observed = parentDone; return nil }, "parent")
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		if !observed {
			t.Fatal("child ran before parent finished")
		}
	}
}

func TestGraphPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	ran := false
	g := newGraph(2)
	g.Add("fail", func() error { return boom })
	g.Add("after", func() error { ran = true; return nil }, "fail")
	err := g.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Error("dependent of failed task ran")
	}
}

func TestGraphPanicsOnBadDeclarations(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() {
		g := New()
		g.Add("a", func() error { return nil })
		g.Add("a", func() error { return nil })
	})
	mustPanic("unknown dep", func() {
		g := New()
		g.Add("a", func() error { return nil }, "ghost")
	})
}

func TestGraphBoundsWorkers(t *testing.T) {
	const workers = 2
	var cur, max int32
	g := newGraph(workers)
	for i := 0; i < 10; i++ {
		g.Add(string(rune('a'+i)), func() error {
			n := atomic.AddInt32(&cur, 1)
			for {
				m := atomic.LoadInt32(&max)
				if n <= m || atomic.CompareAndSwapInt32(&max, m, n) {
					break
				}
			}
			atomic.AddInt32(&cur, -1)
			return nil
		})
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if max > workers {
		t.Errorf("observed %d concurrent tasks, worker bound %d", max, workers)
	}
}

func TestCellSingleflight(t *testing.T) {
	var c Cell[int]
	var builds int32
	var wg sync.WaitGroup
	results := make([]int, 32)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Get(func() int {
				atomic.AddInt32(&builds, 1)
				return 41 + 1
			})
		}(i)
	}
	wg.Wait()
	if builds != 1 {
		t.Errorf("builder ran %d times", builds)
	}
	for i, r := range results {
		if r != 42 {
			t.Errorf("caller %d got %d", i, r)
		}
	}
}

func TestCellGetErrRetriesAfterFailure(t *testing.T) {
	// Poison regression: a failed build must re-arm the cell (retry on
	// the next call), and only a successful build may memoize.
	var c Cell[string]
	boom := errors.New("boom")
	builds := 0
	for i := 0; i < 2; i++ {
		_, err := c.GetErr(func() (string, error) { builds++; return "", boom })
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if builds != 2 {
		t.Fatalf("failed builder ran %d times, want a retry per call", builds)
	}
	v, err := c.GetErr(func() (string, error) { builds++; return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("recovery build: %q, %v", v, err)
	}
	// Success memoizes: later builders must not run.
	v, err = c.GetErr(func() (string, error) { builds++; return "", boom })
	if err != nil || v != "ok" {
		t.Fatalf("after success: %q, %v", v, err)
	}
	if builds != 3 {
		t.Errorf("builder ran %d times, want 3", builds)
	}
}

func TestCellConcurrentFailureSharedThenRetried(t *testing.T) {
	// Callers racing on a failing flight share its one outcome
	// (singleflight preserved); the cell then re-arms so a later wave
	// succeeds. Run many waves under -race to stress the state machine.
	var c Cell[int]
	var builds, failures atomic.Int32
	var healed atomic.Bool
	build := func() (int, error) {
		builds.Add(1)
		time.Sleep(time.Millisecond) // widen the sharing window
		if !healed.Load() {
			return 0, errors.New("not yet")
		}
		return 7, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, err := c.GetErr(build)
				if err != nil {
					failures.Add(1)
					continue
				}
				if v != 7 {
					t.Errorf("got %d", v)
				}
				return
			}
		}()
	}
	// Heal only once a caller has seen the failing flight, so the failure
	// is observed however late the goroutines are scheduled.
	for failures.Load() == 0 {
		runtime.Gosched()
	}
	healed.Store(true)
	wg.Wait()
	if failures.Load() == 0 {
		t.Error("no caller observed the failing flight")
	}
	if b := builds.Load(); int(b) > int(failures.Load())+1 {
		// Singleflight bound: every build except the successful one must
		// have produced at least one shared failure observation.
		t.Errorf("%d builds for %d observed failures", b, failures.Load())
	}
	// The memoized value survives with no further builds.
	before := builds.Load()
	if v, err := c.GetErr(build); err != nil || v != 7 {
		t.Fatalf("warm read: %d, %v", v, err)
	}
	if builds.Load() != before {
		t.Error("warm read re-ran the builder")
	}
}

func TestCellPanicRearmsAndPropagates(t *testing.T) {
	var c Cell[int]
	mustPanic := func() (v any) {
		defer func() { v = recover() }()
		c.Get(func() int { panic("kaboom") })
		return nil
	}
	if got := mustPanic(); got != "kaboom" {
		t.Fatalf("winner recovered %v", got)
	}
	// The panic must not poison the cell: the next build succeeds.
	if v := c.Get(func() int { return 11 }); v != 11 {
		t.Fatalf("post-panic build got %d", v)
	}
}

func TestKeyedPerKeySingleflight(t *testing.T) {
	var k Keyed[int, int]
	var builds int32
	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := g % 3
			got := k.Get(key, func() int {
				atomic.AddInt32(&builds, 1)
				return key * 10
			})
			if got != key*10 {
				t.Errorf("key %d: got %d", key, got)
			}
		}(g)
	}
	wg.Wait()
	if builds != 3 {
		t.Errorf("builders ran %d times for 3 keys", builds)
	}
}
