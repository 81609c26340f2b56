package fivealarms

// Fault-containment tests for the public Study surface: every pipeline
// task is chaos-tested with injected panics, errors and cancellation
// (via the internal/faults harness hooked into the build graph), and in
// every case NewStudyWithOptions must return a descriptive error with a
// nil Study — no crash, no goroutine leak, no partially built state.

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fivealarms/internal/faults"
	"fivealarms/internal/pipeline"
)

// buildAt builds the stress-scale study, plus any extra options, at
// GOMAXPROCS=procs: 1 runs the build graph one task at a time, 4 fans
// it out.
func buildAt(procs int, extra ...Option) (s *Study, err error) {
	faults.WithGOMAXPROCS(procs, func() {
		s, err = NewStudyWithOptions(append([]Option{WithConfig(stressCfg)}, extra...)...)
	})
	return s, err
}

// installHook swaps the build-graph injection hook for the test's
// lifetime. The hook is package state, so chaos tests must not run in
// parallel with each other (none call t.Parallel).
func installHook(t *testing.T, hook func(string) error) {
	t.Helper()
	prev := buildFaultHook
	buildFaultHook = hook
	t.Cleanup(func() { buildFaultHook = prev })
}

// buildTaskNames discovers the pipeline's task names by running one
// clean build (plus any extra options) with a recording hook, so the
// chaos sweep stays in sync with the graph definition without a
// hand-maintained list. The names come back sorted: the order tasks
// start in depends on the schedule.
func buildTaskNames(t *testing.T, extra ...Option) []string {
	t.Helper()
	var mu sync.Mutex
	var names []string
	installHook(t, func(task string) error {
		mu.Lock()
		names = append(names, task)
		mu.Unlock()
		return nil
	})
	if _, err := buildAt(4, extra...); err != nil {
		t.Fatal(err)
	}
	buildFaultHook = nil
	if len(names) == 0 {
		t.Fatal("recording hook saw no tasks")
	}
	slices.Sort(names)
	return names
}

// TestBuildTasksIndependentOfShards: every Config builds through the
// same six layer tasks — the band count only shapes the lazy band pass,
// never the build.
func TestBuildTasksIndependentOfShards(t *testing.T) {
	want := []string{"analyzer", "cellnet", "census", "sim", "whp", "world"}
	for _, shards := range []int{0, 1, 16} {
		if got := buildTaskNames(t, WithShards(shards)); !slices.Equal(got, want) {
			t.Errorf("shards=%d: build ran tasks %v, want %v", shards, got, want)
		}
	}
}

// TestStudyChaosPanicEveryTask is the acceptance-criterion sweep: inject
// a panic into every build task, one at a time, in both schedules. Each
// run must surface a pipeline.PanicError naming the task, return a nil
// Study, and leak no goroutines.
func TestStudyChaosPanicEveryTask(t *testing.T) {
	names := buildTaskNames(t)
	for _, procs := range schedules {
		for _, victim := range names {
			check := faults.CheckGoroutines(t)
			in := faults.New(1)
			in.PanicOn(victim, nil)
			installHook(t, in.Hook())
			s, err := buildAt(procs)
			if s != nil {
				t.Fatalf("procs=%d victim=%s: partially built Study escaped", procs, victim)
			}
			var pe *pipeline.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("procs=%d victim=%s: err = %v, want pipeline.PanicError", procs, victim, err)
			}
			if pe.Task != victim {
				t.Errorf("procs=%d victim=%s: PanicError.Task = %q", procs, victim, pe.Task)
			}
			check()
		}
	}
}

// TestStudyChaosErrorInjection: injected task errors surface through
// NewStudyWithOptions wrapped with the task name, in both schedules.
func TestStudyChaosErrorInjection(t *testing.T) {
	for _, procs := range schedules {
		in := faults.New(1)
		in.ErrorOn("cellnet", nil)
		installHook(t, in.Hook())
		s, err := buildAt(procs)
		if s != nil || err == nil {
			t.Fatalf("procs=%d: s=%v err=%v", procs, s != nil, err)
		}
		if !errors.Is(err, faults.ErrInjected) {
			t.Errorf("procs=%d: injected sentinel lost: %v", procs, err)
		}
		if !strings.Contains(err.Error(), `"cellnet"`) {
			t.Errorf("procs=%d: error does not name the task: %v", procs, err)
		}
	}
}

// TestStudyBuildCancellation: WithContext makes the build cancellable.
// A pre-cancelled context builds nothing; a context cancelled mid-build
// (from inside the first task, via the hook) stops scheduling and
// surfaces ctx.Err() in the chain. Either way the Study is nil.
func TestStudyBuildCancellation(t *testing.T) {
	for _, procs := range schedules {
		pre, cancel := context.WithCancel(context.Background())
		cancel()
		s, err := buildAt(procs, WithContext(pre))
		if s != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("procs=%d pre-cancel: s=%v err=%v", procs, s != nil, err)
		}

		ctx, cancelMid := context.WithCancel(context.Background())
		installHook(t, func(task string) error {
			if task == "world" {
				cancelMid()
			}
			return nil
		})
		start := time.Now()
		s, err = buildAt(procs, WithContext(ctx))
		if s != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("procs=%d mid-cancel: s=%v err=%v", procs, s != nil, err)
		}
		if d := time.Since(start); d > 30*time.Second {
			t.Errorf("procs=%d: cancelled build took %v", procs, d)
		}
		buildFaultHook = nil
	}
}

// TestStudyChaosCleanRunIdentical: with the harness attached but firing
// nothing, the build must be bit-identical to an uninstrumented one —
// injection off may not perturb results.
func TestStudyChaosCleanRunIdentical(t *testing.T) {
	in := faults.New(5) // no rules, no rates: fires nothing
	installHook(t, in.Hook())
	instrumented, err := buildAt(4)
	if err != nil {
		t.Fatal(err)
	}
	buildFaultHook = nil
	clean := mustStudy(stressCfg)
	a, b := analysisFingerprints(instrumented), analysisFingerprints(clean)
	for name, want := range b {
		if a[name] != want {
			t.Errorf("%s differs with inert chaos harness attached", name)
		}
	}
	if len(in.Events()) != 0 {
		t.Errorf("inert injector fired: %v", in.Events())
	}
}
