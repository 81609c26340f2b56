package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fivealarms/internal/faults"
)

// schedules are the GOMAXPROCS settings every schedule-sensitive test
// makes its graphs at: bounded parallel, and one task at a time.
var schedules = []int{4, 1}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range schedules {
		var ran atomic.Int32
		g := newGraph(workers)
		g.Add("a", func() error { ran.Add(1); return nil })
		g.Add("b", func() error { ran.Add(1); return nil }, "a")
		err := g.RunContext(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled in chain", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d tasks ran under a pre-cancelled context", workers, ran.Load())
		}
		if !strings.Contains(err.Error(), "0 of 2") {
			t.Errorf("workers=%d: error lacks progress info: %v", workers, err)
		}
	}
}

func TestRunContextCancelMidFlight(t *testing.T) {
	// Cancel while the first task is in flight: the in-flight task
	// drains, no dependent is scheduled, ctx.Err() is in the chain, and
	// the run returns within one task granularity.
	check := faults.CheckGoroutines(t)
	ctx, cancel := context.WithCancel(context.Background())
	var afterRan atomic.Bool
	g := newGraph(4)
	g.Add("slow", func() error {
		cancel()
		<-ctx.Done() // the task itself survives cancellation; it drains
		return nil
	})
	g.Add("after", func() error { afterRan.Store(true); return nil }, "slow")
	start := time.Now()
	err := g.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if afterRan.Load() {
		t.Error("dependent scheduled after cancellation")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("run took %v after cancellation", d)
	}
	check()
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	g := newGraph(2)
	g.Add("sleepy", func() error {
		<-ctx.Done()
		return nil
	})
	g.Add("next", func() error { return nil }, "sleepy")
	err := g.RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded in chain", err)
	}
}

func TestRunContextCompletionBeatsLateCancel(t *testing.T) {
	// A context that fires only after every task completed is not an
	// error: the work is done and the result is whole.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := newGraph(2)
	g.Add("a", func() error { return nil })
	if err := g.RunContext(ctx); err != nil {
		t.Fatalf("err = %v", err)
	}
}

func TestPanicContainment(t *testing.T) {
	for _, workers := range schedules {
		check := faults.CheckGoroutines(t)
		g := newGraph(workers)
		g.Add("fine", func() error { return nil })
		g.Add("bomb", func() error { panic("boom") })
		g.Add("downstream", func() error { t.Error("dependent of panicking task ran"); return nil }, "bomb")
		err := g.Run()
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Task != "bomb" {
			t.Errorf("workers=%d: PanicError.Task = %q", workers, pe.Task)
		}
		if pe.Value != "boom" {
			t.Errorf("workers=%d: PanicError.Value = %v", workers, pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "panic") {
			t.Errorf("workers=%d: PanicError.Stack missing", workers)
		}
		check()
	}
}

// inFlightTogether returns a function that blocks each of n tasks until
// all n have started, so a graph with at least n workers holds them in
// flight at once whatever the schedule.
func inFlightTogether(n int) func() {
	var started sync.WaitGroup
	started.Add(n)
	return func() { started.Done(); started.Wait() }
}

// TestJoinErrorsAggregatesInDeclarationOrder fails two independent
// tasks while both are in flight: the run joins both errors in
// declaration order, not completion order, and skips the dependent of
// the failed task.
func TestJoinErrorsAggregatesInDeclarationOrder(t *testing.T) {
	errA := errors.New("layer A broken")
	errC := errors.New("layer C broken")
	for _, workers := range []int{4, 2} {
		var dRan atomic.Bool
		together := inFlightTogether(2)
		g := newGraph(workers)
		g.Add("a", func() error { together(); time.Sleep(2 * time.Millisecond); return errA })
		g.Add("c", func() error { together(); return errC })
		g.Add("d", func() error { dRan.Store(true); return nil }, "a")
		err := g.Run()
		if !errors.Is(err, errA) || !errors.Is(err, errC) {
			t.Fatalf("workers=%d: aggregate %v missing a failure", workers, err)
		}
		if dRan.Load() {
			t.Errorf("workers=%d: dependent of failed task ran", workers)
		}
		// "a" failed last but was declared first.
		msg := err.Error()
		if ia, ic := strings.Index(msg, "layer A"), strings.Index(msg, "layer C"); ia < 0 || ic < 0 || ia > ic {
			t.Errorf("workers=%d: aggregate order wrong: %q", workers, msg)
		}
	}
}

// TestJoinErrorsCollectsPanics panics one task while another in flight
// fails: the joined error carries both failure modes.
func TestJoinErrorsCollectsPanics(t *testing.T) {
	boom := errors.New("plain failure")
	together := inFlightTogether(2)
	g := newGraph(4)
	g.Add("fails", func() error { together(); return boom })
	g.Add("panics", func() error { together(); panic(42) })
	err := g.Run()
	var pe *PanicError
	if !errors.Is(err, boom) || !errors.As(err, &pe) {
		t.Fatalf("aggregate %v lost a failure mode", err)
	}
	if pe.Task != "panics" || pe.Value != 42 {
		t.Errorf("PanicError = %+v", pe)
	}
}

func TestFirstErrorModeStillWins(t *testing.T) {
	// One error comes back and not-yet-started tasks are abandoned.
	boom := errors.New("boom")
	g := newGraph(1)
	g.Add("fail", func() error { return boom })
	g.Add("after", func() error { t.Error("ran after failure"); return nil }, "fail")
	if err := g.Run(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestCycleDetectionUnderRunContext(t *testing.T) {
	// Add cannot declare a cycle (deps must pre-exist), so splice one in
	// behind its back: the executor must report it, not deadlock.
	g := newGraph(2)
	g.Add("a", func() error { return nil })
	g.Add("b", func() error { return nil }, "a")
	g.byName["a"].deps = []string{"b"} // a <-> b
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := g.RunContext(ctx)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want cycle report", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("cycle detection relied on the deadline")
	}
}

func TestTaskNames(t *testing.T) {
	g := New()
	g.Add("x", func() error { return nil })
	g.Add("y", func() error { return nil }, "x")
	names := g.TaskNames()
	if fmt.Sprint(names) != "[x y]" {
		t.Fatalf("TaskNames = %v", names)
	}
}
