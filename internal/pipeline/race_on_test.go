//go:build race

package pipeline

// raceEnabled reports that this binary was built with -race: the
// detector's instrumentation allocates, and sync.Pool drops items at
// random, so the steady-state-allocation assertion skips itself.
const raceEnabled = true
