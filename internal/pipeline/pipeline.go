// Package pipeline provides the small concurrency toolkit behind the
// public Study: a dependency-graph executor that fans independent build
// steps out across GOMAXPROCS workers, memoization cells (Cell, Keyed)
// that compute a derived product exactly once and share it between
// concurrent callers (singleflight semantics), and Bands, the one fan-out
// of a data loop over GOMAXPROCS goroutines.
//
// The executor is deliberately tiny: tasks are named, depend on other
// tasks by name, and run as soon as every dependency has finished.
// Determinism is the caller's contract — tasks must not communicate
// except through their declared dependency edges, so the schedule (any
// GOMAXPROCS, 1 included) cannot change any task's result.
//
// # Failure model
//
// The executor contains faults instead of amplifying them:
//
//   - A panicking task is recovered into a *PanicError carrying the task
//     name, the panic value and the goroutine stack; sibling workers are
//     woken and drain cleanly, and no goroutine outlives the run.
//   - RunContext honors cancellation: a cancelled
//     context stops new tasks from being scheduled, in-flight tasks are
//     drained, and the returned error wraps ctx.Err() together with how
//     far the run got.
//   - The first task error stops scheduling. Tasks already in flight
//     finish, and when several of them fail the run returns one
//     errors.Join of their errors in declaration order, whatever order
//     they failed in. Tasks downstream of a failed dependency never run.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
)

// PanicError is a panic recovered from a task. It is returned (wrapped
// in the run's error) instead of crashing the process; errors.As
// retrieves it from any executor error chain.
type PanicError struct {
	Task  string // the task whose function (or injection hook) panicked
	Value any    // the value passed to panic
	// Stack is the panicking goroutine's stack at recovery time: for a
	// band that panicked inside Bands, the band's goroutine where it
	// panicked.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pipeline: task %q panicked: %v", e.Task, e.Value)
}

// task is one node of the dependency graph.
type task struct {
	name  string
	order int // declaration index; fixes error-aggregation order
	deps  []string
	fn    func() error
}

// Graph is a build-once dependency graph. Declare tasks with Add, then
// execute with Run or RunContext on at most GOMAXPROCS goroutines, as
// read when the graph was made (one task at a time at GOMAXPROCS=1). A
// Graph is not safe for concurrent declaration and is consumed by a
// single run call.
type Graph struct {
	workers int
	tasks   []*task
	byName  map[string]*task
	inject  func(task string) error
}

// New returns a graph that runs at most GOMAXPROCS tasks concurrently.
func New() *Graph {
	return &Graph{workers: runtime.GOMAXPROCS(0), byName: map[string]*task{}}
}

// Add declares a task. Every name in deps must already be declared, so
// the graph is acyclic by construction. Add panics on a duplicate name or an unknown
// dependency; both are programming errors in the graph definition.
func (g *Graph) Add(name string, fn func() error, deps ...string) {
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("pipeline: duplicate task %q", name))
	}
	for _, d := range deps {
		if _, ok := g.byName[d]; !ok {
			panic(fmt.Sprintf("pipeline: task %q depends on undeclared %q", name, d))
		}
	}
	t := &task{name: name, order: len(g.tasks), deps: deps, fn: fn}
	g.tasks = append(g.tasks, t)
	g.byName[name] = t
}

// TaskNames returns the declared task names in declaration order (a
// valid serial schedule). Chaos harnesses use it to enumerate injection
// targets.
func (g *Graph) TaskNames() []string {
	out := make([]string, len(g.tasks))
	for i, t := range g.tasks {
		out[i] = t.name
	}
	return out
}

// SetInjectionHook installs a chaos hook that runs immediately before
// every task function, receiving the task name. A hook may sleep (delay
// injection), return a non-nil error (failure injection), or panic
// (crash injection — contained into a *PanicError exactly like a panic
// in the task itself). The hook exists for deterministic fault-injection
// tests (see internal/faults) and must stay nil in production paths.
func (g *Graph) SetInjectionHook(hook func(task string) error) { g.inject = hook }

// runTask executes one task with the injection hook applied and any
// panic contained into a *PanicError. A panic re-raised by Bands reports
// the band's value and the stack where the band panicked.
func (g *Graph) runTask(t *task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Task: t.name, Value: r, Stack: debug.Stack()}
			if bp, ok := r.(*BandPanic); ok {
				pe.Value, pe.Stack = bp.Value, bp.Stack
			}
			err = pe
		}
	}()
	if g.inject != nil {
		if err := g.inject(t.name); err != nil {
			return err
		}
	}
	return t.fn()
}

// taskError pairs a failure with its task's declaration index so
// aggregated errors report in a deterministic order regardless of which
// worker lost the race.
type taskError struct {
	order int
	err   error
}

// wrapTaskErr names the failing task unless the error already does
// (PanicError carries its task).
func wrapTaskErr(t *task, err error) taskError {
	var pe *PanicError
	if !errors.As(err, &pe) {
		err = fmt.Errorf("pipeline: task %q: %w", t.name, err)
	}
	return taskError{order: t.order, err: err}
}

// finish reduces a run's collected failures to the returned error.
// done==n with no failures is success even if ctx expired at the last
// instant; otherwise a non-nil ctxErr is appended so cancellation is
// always visible in the chain alongside any task errors.
func finish(errs []taskError, ctxErr error, done, n int) error {
	if len(errs) == 0 && done == n {
		return nil
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].order < errs[j].order })
	flat := make([]error, 0, len(errs)+1)
	for _, te := range errs {
		flat = append(flat, te.err)
	}
	if ctxErr != nil {
		flat = append(flat, fmt.Errorf("pipeline: cancelled after %d of %d tasks: %w", done, n, ctxErr))
	}
	switch len(flat) {
	case 0:
		return fmt.Errorf("pipeline: dependency cycle: %d of %d tasks ran", done, n)
	case 1:
		return flat[0]
	}
	return errors.Join(flat...)
}

// Run executes the graph with bounded workers and no cancellation. Each
// task starts once all of its dependencies have succeeded. The first
// task error stops scheduling and is returned after every in-flight
// task has finished, so partially built state is never abandoned
// mid-write.
func (g *Graph) Run() error { return g.RunContext(context.Background()) }

// RunContext is Run under a context. Cancellation (or a deadline) stops
// new tasks from being scheduled — the run returns within one task
// granularity, after draining the tasks already in flight — and the
// returned error wraps ctx.Err() with the completed/total progress.
func (g *Graph) RunContext(ctx context.Context) error {
	n := len(g.tasks)
	if n == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return finish(nil, err, 0, n)
	}

	// Indegree per task and forward edges dep -> dependents.
	indeg := make(map[string]int, n)
	dependents := make(map[string][]*task, n)
	for _, t := range g.tasks {
		indeg[t.name] = len(t.deps)
		for _, d := range t.deps {
			dependents[d] = append(dependents[d], t)
		}
	}

	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		ready     []*task
		running   int
		done      int
		errs      []taskError
		cancelled bool
	)
	// stopped reports (with mu held) whether workers must stop picking up
	// new tasks: the context fired, or a task failed. The direct
	// ctx.Err() check makes cancellation synchronous with the caller's
	// cancel(): no task is picked up after cancel returns, even if the
	// watcher goroutine has not been scheduled yet.
	stopped := func() bool {
		if cancelled || len(errs) > 0 {
			return true
		}
		if ctx.Err() != nil {
			cancelled = true
			return true
		}
		return false
	}
	for _, t := range g.tasks {
		if indeg[t.name] == 0 {
			ready = append(ready, t)
		}
	}

	// The watcher turns ctx cancellation into a cond broadcast so blocked
	// workers wake promptly; it exits with the run (no goroutine leak).
	watchDone := make(chan struct{})
	var watchWG sync.WaitGroup
	if ctx.Done() != nil {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			select {
			case <-ctx.Done():
				mu.Lock()
				cancelled = true
				cond.Broadcast()
				mu.Unlock()
			case <-watchDone:
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			for {
				for len(ready) == 0 && running > 0 && !stopped() {
					cond.Wait()
				}
				if len(ready) == 0 || stopped() {
					// Drained, failed, cancelled, or (on a cycle) stalled
					// with nothing runnable: wake the others and exit.
					cond.Broadcast()
					mu.Unlock()
					return
				}
				t := ready[len(ready)-1]
				ready = ready[:len(ready)-1]
				running++
				mu.Unlock()

				err := g.runTask(t)

				mu.Lock()
				running--
				done++
				if err != nil {
					errs = append(errs, wrapTaskErr(t, err))
				} else {
					for _, dep := range dependents[t.name] {
						indeg[dep.name]--
						if indeg[dep.name] == 0 {
							ready = append(ready, dep)
						}
					}
				}
				cond.Broadcast()
			}
		}()
	}
	wg.Wait()
	close(watchDone)
	watchWG.Wait()

	// All workers and the watcher have exited; state is quiescent.
	var ctxErr error
	if cancelled || ctx.Err() != nil {
		ctxErr = ctx.Err()
	}
	return finish(errs, ctxErr, done, n)
}
