package pipeline

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"fivealarms/internal/faults"
)

// chaosGraph builds the reference diamond-with-tail graph the chaos
// sweeps run against at GOMAXPROCS procs, recording which tasks
// completed.
func chaosGraph(procs int, hook func(string) error, completed *atomic.Int32) *Graph {
	g := newGraph(procs)
	g.SetInjectionHook(hook)
	note := func() error { completed.Add(1); return nil }
	g.Add("root", note)
	g.Add("left", note, "root")
	g.Add("right", note, "root")
	g.Add("join", note, "left", "right")
	g.Add("tail", note, "join")
	return g
}

// TestChaosPanicEveryTask injects a panic into every task, one at a
// time, in both schedules: each run must contain the panic into a
// *PanicError naming the injected task, leak no goroutines, and leave
// the process healthy enough for the next iteration.
func TestChaosPanicEveryTask(t *testing.T) {
	names := chaosGraph(1, nil, new(atomic.Int32)).TaskNames()
	for _, workers := range schedules {
		for _, victim := range names {
			check := faults.CheckGoroutines(t)
			in := faults.New(1)
			in.PanicOn(victim, nil)
			var completed atomic.Int32
			err := chaosGraph(workers, in.Hook(), &completed).Run()
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("workers=%d victim=%s: err = %v, want *PanicError", workers, victim, err)
			}
			if pe.Task != victim {
				t.Errorf("workers=%d victim=%s: PanicError.Task = %q", workers, victim, pe.Task)
			}
			ev := in.Events()
			if len(ev) != 1 || ev[0] != (faults.Event{Task: victim, Kind: faults.KindPanic}) {
				t.Errorf("workers=%d victim=%s: events = %v", workers, victim, ev)
			}
			check()
		}
	}
}

// TestChaosErrorEveryTask is the error-injection sweep: every failure
// surfaces wrapped with its task name and downstream tasks are skipped.
func TestChaosErrorEveryTask(t *testing.T) {
	names := chaosGraph(1, nil, new(atomic.Int32)).TaskNames()
	for _, victim := range names {
		in := faults.New(1)
		in.ErrorOn(victim, nil)
		var completed atomic.Int32
		g := chaosGraph(4, in.Hook(), &completed)
		err := g.Run()
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("victim=%s: err = %v", victim, err)
		}
		if int(completed.Load()) >= len(names) {
			t.Errorf("victim=%s: all tasks completed despite injection", victim)
		}
	}
}

// TestChaosSeededRatesDeterministic asserts the rate-based plan is a
// pure function of the seed: two runs with the same seed fire identical
// fault sets regardless of scheduling, and injection off means zero
// events.
func TestChaosSeededRatesDeterministic(t *testing.T) {
	names := chaosGraph(1, nil, new(atomic.Int32)).TaskNames()
	fired := func(seed uint64) map[faults.Event]bool {
		in := faults.New(seed)
		in.ErrorRate(0.5)
		// Consult the plan for every task directly: a graph run stops
		// at its first failure, so which tasks it reaches depends on
		// the schedule.
		hook := in.Hook()
		for _, name := range names {
			_ = hook(name)
		}
		set := map[faults.Event]bool{}
		for _, e := range in.Events() {
			set[e] = true
		}
		return set
	}
	a, b := fired(42), fired(42)
	if len(a) == 0 {
		t.Fatal("seed 42 at rate 0.5 injected nothing into 5 tasks")
	}
	for e := range a {
		if !b[e] {
			t.Fatalf("seed 42 runs disagree: %v vs %v", a, b)
		}
	}
	if len(a) != len(b) {
		t.Fatalf("seed 42 runs disagree: %v vs %v", a, b)
	}

	// No injector installed: the same graph runs clean.
	var completed atomic.Int32
	if err := chaosGraph(4, nil, &completed).Run(); err != nil || completed.Load() != 5 {
		t.Fatalf("clean run: err=%v completed=%d", err, completed.Load())
	}
}

// TestChaosDelaysDoNotChangeResults injects seed-keyed delays into every
// task and asserts pure scheduling jitter: same completions, no error.
func TestChaosDelaysDoNotChangeResults(t *testing.T) {
	in := faults.New(7)
	in.MaxDelay(2 * time.Millisecond)
	var completed atomic.Int32
	g := chaosGraph(4, in.Hook(), &completed)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if completed.Load() != 5 {
		t.Fatalf("completed %d of 5", completed.Load())
	}
}
