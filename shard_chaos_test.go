package fivealarms

// Fault containment for the band pass: every pass task — the partition
// plan, each band's overlay, the band-order merge — is chaos-tested with
// injected errors and panics at GOMAXPROCS 1 and 4. A failed task makes
// the first Table1 call panic with the pass's error, leaves the Study
// usable and nothing partial memoized, and leaks no goroutine.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"fivealarms/internal/faults"
	"fivealarms/internal/pipeline"
)

const chaosShards = 3

// passTaskNames discovers the band pass's task list with a recording
// hook (the same discovery pattern as buildTaskNames): the hook is
// installed after the build, so it sees only the pass.
func passTaskNames(t *testing.T) []string {
	t.Helper()
	s, err := buildAt(1, WithShards(chaosShards))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	installHook(t, func(task string) error {
		names = append(names, task)
		return nil
	})
	faults.WithGOMAXPROCS(1, func() { s.Table1() })
	buildFaultHook = nil
	// plan + merge + one overlay per band.
	if want := 2 + chaosShards; len(names) != want {
		t.Fatalf("discovered %d pass tasks %v, want %d", len(names), names, want)
	}
	return names
}

// passFingerprints serializes the band pass's products.
func passFingerprints(s *Study) string {
	rows, peak := s.ShardStats()
	return asJSON(s.Table1()) + asJSON(s.Validate()) + fmt.Sprint(rows, peak)
}

// passPanic calls the accessor at GOMAXPROCS=procs and returns the
// value it panicked with (nil when it returned normally).
func passPanic(procs int, accessor func()) (v any) {
	faults.WithGOMAXPROCS(procs, func() {
		defer func() { v = recover() }()
		accessor()
	})
	return v
}

// chaosEveryPassTask arms in for each pass task in turn (via arm), at
// GOMAXPROCS 1 and 4, on a fresh 3-band Study. Table1 must panic with an
// error that check accepts; Validate and ShardStats, which find the
// cell re-armed, must re-run the pass and panic too; and a retry with
// the hook cleared must return the clean products, leaking no
// goroutine — nothing partial was memoized.
func chaosEveryPassTask(t *testing.T, arm func(in *faults.Injector, task string), check func(err error, victim string) bool) {
	names := passTaskNames(t)
	clean, err := buildAt(1, WithShards(chaosShards))
	if err != nil {
		t.Fatal(err)
	}
	want := passFingerprints(clean)
	for _, procs := range schedules {
		for _, victim := range names {
			at := fmt.Sprintf("procs=%d victim=%s", procs, victim)
			s, err := buildAt(procs, WithShards(chaosShards))
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			done := faults.CheckGoroutines(t)
			in := faults.New(1)
			arm(in, victim)
			installHook(t, in.Hook())
			v := passPanic(procs, func() { s.Table1() })
			if err, ok := v.(error); !ok || !check(err, victim) {
				t.Errorf("%s: Table1 panicked with %v", at, v)
			}
			for name, accessor := range map[string]func(){
				"Validate":   func() { s.Validate() },
				"ShardStats": func() { s.ShardStats() },
			} {
				if v := passPanic(procs, accessor); v == nil {
					t.Errorf("%s: %s returned despite the failing pass", at, name)
				}
			}
			buildFaultHook = nil
			var got string
			faults.WithGOMAXPROCS(procs, func() { got = passFingerprints(s) })
			if got != want {
				t.Errorf("%s: retry after the fault differs from a clean pass", at)
			}
			done()
		}
	}
}

// TestShardedChaosPanicEveryTask: a panic injected into any pass task
// surfaces from Table1 as a pipeline.PanicError naming that task.
func TestShardedChaosPanicEveryTask(t *testing.T) {
	chaosEveryPassTask(t,
		func(in *faults.Injector, task string) { in.PanicOn(task, nil) },
		func(err error, victim string) bool {
			var pe *pipeline.PanicError
			return errors.As(err, &pe) && pe.Task == victim
		})
}

// TestShardedChaosErrorEveryTask: an error injected into any pass task
// surfaces from Table1 wrapping the injected sentinel and naming the
// task.
func TestShardedChaosErrorEveryTask(t *testing.T) {
	chaosEveryPassTask(t,
		func(in *faults.Injector, task string) { in.ErrorOn(task, nil) },
		func(err error, victim string) bool {
			return errors.Is(err, faults.ErrInjected) && strings.Contains(err.Error(), `"`+victim+`"`)
		})
}

// TestShardedChaosUpstreamFailureSkipsShards: a failure in the
// partition plan must skip every band overlay and the merge — no band
// ever joins against a missing partition.
func TestShardedChaosUpstreamFailureSkipsShards(t *testing.T) {
	for _, procs := range schedules {
		s, err := buildAt(procs, WithShards(chaosShards))
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var ran []string
		in := faults.New(1)
		in.ErrorOn("shards/plan", nil)
		inner := in.Hook()
		installHook(t, func(task string) error {
			mu.Lock()
			ran = append(ran, task)
			mu.Unlock()
			return inner(task)
		})
		if v := passPanic(procs, func() { s.Table1() }); v == nil {
			t.Fatalf("procs=%d: Table1 returned despite the failed plan", procs)
		}
		buildFaultHook = nil
		mu.Lock() // the pass has joined; lock for the race detector's sake
		if !slices.Equal(ran, []string{"shards/plan"}) {
			t.Errorf("procs=%d: tasks %v ran, want only the failed plan", procs, ran)
		}
		mu.Unlock()
	}
}

// TestShardedChaosCleanRunIdentical: an inert chaos harness on the band
// pass must not perturb results relative to the uninstrumented
// one-band study.
func TestShardedChaosCleanRunIdentical(t *testing.T) {
	s, err := buildAt(4, WithShards(chaosShards))
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(5) // no rules: fires nothing
	installHook(t, in.Hook())
	faults.WithGOMAXPROCS(4, func() { s.Table1() })
	buildFaultHook = nil
	clean := mustStudy(stressCfg)
	a, b := analysisFingerprints(s), analysisFingerprints(clean)
	for name, want := range b {
		if a[name] != want {
			t.Errorf("%s differs with inert chaos harness on the band pass", name)
		}
	}
	if len(in.Events()) != 0 {
		t.Errorf("inert injector fired: %v", in.Events())
	}
}

// TestShardedPassRunsOnce is the -race singleflight check: 8 goroutines
// make the first Table1, Validate and ShardStats calls on a fresh
// 3-band Study at once, and every pass task runs exactly once.
func TestShardedPassRunsOnce(t *testing.T) {
	s, err := buildAt(4, WithShards(chaosShards))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	runs := map[string]int{}
	installHook(t, func(task string) error {
		mu.Lock()
		runs[task]++
		mu.Unlock()
		return nil
	})
	calls := []func(){
		func() { s.Table1() },
		func() { s.Validate() },
		func() { s.ShardStats() },
	}
	faults.WithGOMAXPROCS(4, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				calls[g%len(calls)]()
			}()
		}
		wg.Wait()
	})
	buildFaultHook = nil
	if len(runs) != 2+chaosShards {
		t.Errorf("pass ran tasks %v, want %d distinct", runs, 2+chaosShards)
	}
	for task, n := range runs {
		if n != 1 {
			t.Errorf("task %s ran %d times, want once", task, n)
		}
	}
}
