// Package faults is a deterministic chaos-injection harness for the
// pipeline executor. An Injector produces a hook (installed via
// pipeline.Graph.SetInjectionHook) that fires errors, panics, or delays
// immediately before named tasks run.
//
// Every decision is a pure function of (seed, task name): rate-based
// rules hash the task name against the seed, so the same seed injects
// the same faults into the same tasks no matter how the scheduler
// interleaves workers — a failing chaos run reproduces from its seed
// alone. Explicit per-task rules (ErrorOn, PanicOn, DelayOn) fire
// unconditionally.
//
// The package also holds the checks the chaos suites share:
// CheckGoroutines, the goroutine-leak check, and WithGOMAXPROCS, which
// schedule-twin tests use to build the same study serially and in
// parallel.
//
// The package is test-only by convention: production code never
// installs an injection hook, and with no hook installed the executor's
// fast path is untouched.
package faults

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected error, so tests
// can errors.Is a pipeline failure back to the harness.
var ErrInjected = errors.New("faults: injected failure")

// Kind classifies what an injection did.
type Kind int

const (
	// KindError made the task return an error.
	KindError Kind = iota + 1
	// KindPanic panicked in the task's goroutine.
	KindPanic
	// KindDelay slept before the task body ran.
	KindDelay
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event records one injection that actually fired.
type Event struct {
	Task string
	Kind Kind
}

// rule is an unconditional per-task injection.
type rule struct {
	kind  Kind
	err   error
	val   any
	delay time.Duration
}

// Injector holds the fault plan. Configure it (ErrorOn/PanicOn/DelayOn
// for targeted rules, ErrorRate/PanicRate/MaxDelay for seed-keyed
// random coverage), then install Hook() on a Graph. Safe for use from
// concurrent task goroutines.
type Injector struct {
	seed uint64

	mu     sync.Mutex
	rules  map[string]rule
	events []Event

	errRate   float64
	panicRate float64
	maxDelay  time.Duration
}

// New returns an empty injector whose rate-based decisions are keyed by
// seed.
func New(seed uint64) *Injector {
	return &Injector{seed: seed, rules: map[string]rule{}}
}

// ErrorOn makes every run of task fail with err (nil selects a default
// error naming the task). The error wraps ErrInjected.
func (in *Injector) ErrorOn(task string, err error) {
	if err == nil {
		err = fmt.Errorf("task %q", task)
	}
	in.mu.Lock()
	in.rules[task] = rule{kind: KindError, err: fmt.Errorf("%w: %w", ErrInjected, err)}
	in.mu.Unlock()
}

// PanicOn makes every run of task panic with value (nil selects a
// descriptive string).
func (in *Injector) PanicOn(task string, value any) {
	if value == nil {
		value = fmt.Sprintf("faults: injected panic in task %q", task)
	}
	in.mu.Lock()
	in.rules[task] = rule{kind: KindPanic, val: value}
	in.mu.Unlock()
}

// DelayOn makes every run of task sleep for d before its body runs.
func (in *Injector) DelayOn(task string, d time.Duration) {
	in.mu.Lock()
	in.rules[task] = rule{kind: KindDelay, delay: d}
	in.mu.Unlock()
}

// ErrorRate injects an error into the fraction p of task names (chosen
// by hashing each name against the seed, not by coin flips at run
// time — the selection is stable across runs and schedules).
func (in *Injector) ErrorRate(p float64) {
	in.mu.Lock()
	in.errRate = p
	in.mu.Unlock()
}

// PanicRate injects a panic into the fraction p of task names,
// seed-keyed like ErrorRate. Panic selection is checked before error
// selection when both rates are set.
func (in *Injector) PanicRate(p float64) {
	in.mu.Lock()
	in.panicRate = p
	in.mu.Unlock()
}

// MaxDelay sleeps every task for a seed-keyed duration in [0, d). Use
// small values: delays serialize chaos runs.
func (in *Injector) MaxDelay(d time.Duration) {
	in.mu.Lock()
	in.maxDelay = d
	in.mu.Unlock()
}

// Events returns a copy of the injections that fired, in firing order.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// Reset clears fired events and every rule and rate, keeping the seed.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.events = nil
	in.rules = map[string]rule{}
	in.errRate, in.panicRate, in.maxDelay = 0, 0, 0
}

// Hook returns the function to install with Graph.SetInjectionHook.
func (in *Injector) Hook() func(task string) error {
	return in.fire
}

// Salt constants decorrelate the per-decision hash streams so e.g. the
// 10% of tasks chosen for panics is independent of the 10% chosen for
// errors.
const (
	saltDelay = 0x9e3779b97f4a7c15
	saltPanic = 0xbf58476d1ce4e5b9
	saltError = 0x94d049bb133111eb
)

// fire applies the plan to one task run: targeted rule first, then
// seed-keyed delay, panic, and error in that order.
func (in *Injector) fire(task string) error {
	in.mu.Lock()
	r, targeted := in.rules[task]
	errRate, panicRate, maxDelay := in.errRate, in.panicRate, in.maxDelay
	in.mu.Unlock()

	if targeted {
		in.record(task, r.kind)
		switch r.kind {
		case KindDelay:
			time.Sleep(r.delay)
			return nil
		case KindPanic:
			panic(r.val)
		default:
			return r.err
		}
	}
	if maxDelay > 0 {
		if d := time.Duration(in.roll(task, saltDelay) * float64(maxDelay)); d > 0 {
			in.record(task, KindDelay)
			time.Sleep(d)
		}
	}
	if panicRate > 0 && in.roll(task, saltPanic) < panicRate {
		in.record(task, KindPanic)
		panic(fmt.Sprintf("faults: injected panic in task %q (seed %d)", task, in.seed))
	}
	if errRate > 0 && in.roll(task, saltError) < errRate {
		in.record(task, KindError)
		return fmt.Errorf("%w: task %q (seed %d)", ErrInjected, task, in.seed)
	}
	return nil
}

func (in *Injector) record(task string, k Kind) {
	in.mu.Lock()
	in.events = append(in.events, Event{Task: task, Kind: k})
	in.mu.Unlock()
}

// roll maps (seed, task, salt) to a uniform float64 in [0, 1) with an
// FNV-1a fold of the name followed by a splitmix64 finalizer. Pure and
// schedule-independent by construction.
func (in *Injector) roll(task string, salt uint64) float64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(task); i++ {
		h ^= uint64(task[i])
		h *= 1099511628211
	}
	z := h ^ in.seed ^ salt
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
