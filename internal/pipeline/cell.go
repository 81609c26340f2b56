package pipeline

import "sync"

// flight is one in-progress computation of a Cell value. Waiters block
// on ch and then read the outcome fields, which are written exactly once
// before ch closes.
type flight[T any] struct {
	ch       chan struct{}
	val      T
	err      error
	panicked bool
	panicVal any
}

// Cell is a concurrency-safe memoization cell: the first Get computes
// the value, every later Get returns it, and concurrent callers during
// the first computation block until it finishes (singleflight — the
// build function runs exactly once no matter how many goroutines race).
//
// Failures do not poison the cell. If the builder returns an error or
// panics, every caller sharing that flight observes the same outcome
// (the error, or a rethrow of the panic value), and the cell re-arms so
// the next caller retries with a fresh flight. Only a successful build
// is memoized.
//
// The zero value is ready to use. A Cell must not be copied after first
// use. The builder passed to the winning Get is the one that runs; by
// convention callers pass the same pure builder at every call site.
type Cell[T any] struct {
	mu     sync.Mutex
	done   bool // a build succeeded; val is permanent
	val    T
	flight *flight[T] // in-progress build, nil when idle
}

// Get returns the memoized value, computing it with build on first use.
// A panicking builder re-arms the cell (see GetErr).
func (c *Cell[T]) Get(build func() T) T {
	v, _ := c.GetErr(func() (T, error) { return build(), nil }) //fivealarms:allow(errflow) the wrapped builder returns a nil error by construction
	return v
}

// GetErr is Get for fallible builders. A successful value is memoized
// forever; an error (or panic) is shared with every caller concurrent
// with the failing flight and then discarded, so the next caller
// retries.
func (c *Cell[T]) GetErr(build func() (T, error)) (T, error) {
	c.mu.Lock()
	if c.done {
		v := c.val
		c.mu.Unlock()
		return v, nil
	}
	if f := c.flight; f != nil {
		// Someone else is building: share their one outcome.
		c.mu.Unlock()
		<-f.ch
		if f.panicked {
			panic(f.panicVal)
		}
		return f.val, f.err
	}
	f := &flight[T]{ch: make(chan struct{})}
	c.flight = f
	c.mu.Unlock()

	// Run the builder outside the lock so waiters can enqueue. The
	// deferred settle publishes the outcome — success memoizes, failure
	// or panic re-arms — and releases the waiters exactly once.
	completed := false
	defer func() {
		if !completed {
			f.panicked = true
			f.panicVal = recover()
		}
		c.mu.Lock()
		if completed && f.err == nil {
			c.val = f.val
			c.done = true
		}
		c.flight = nil
		c.mu.Unlock()
		close(f.ch)
		if f.panicked {
			panic(f.panicVal)
		}
	}()
	f.val, f.err = build()
	completed = true
	return f.val, f.err
}

// Keyed is a map of memoization cells: one Cell per key, created on
// demand. Distinct keys compute concurrently; callers racing on the
// same key share one computation. Like Cell, a panicking build
// re-arms its key instead of poisoning it. The zero value is ready to
// use.
type Keyed[K comparable, T any] struct {
	mu sync.Mutex
	m  map[K]*Cell[T]
}

// cell returns the (lazily created) cell for key.
func (k *Keyed[K, T]) cell(key K) *Cell[T] {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.m == nil {
		k.m = map[K]*Cell[T]{}
	}
	c, ok := k.m[key]
	if !ok {
		c = &Cell[T]{}
		k.m[key] = c
	}
	return c
}

// Get returns the memoized value for key, computing it with build on
// the key's first use. The builder runs outside the map lock, so slow
// builds on different keys proceed in parallel.
func (k *Keyed[K, T]) Get(key K, build func() T) T {
	return k.cell(key).Get(build)
}
