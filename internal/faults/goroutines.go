package faults

import (
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// CheckGoroutines lets goroutines started after its snapshot unwind
// (canceled waiters, drained workers) for up to leakPolls polls,
// leakPoll apart — two seconds — before it reports them as leaked.
const (
	leakPoll  = 5 * time.Millisecond
	leakPolls = 400
)

// CheckGoroutines snapshots the live goroutines and returns a check
// that fails t unless every goroutine started since has exited within
// a bounded wait. Each survivor is reported with its state and its
// `created by` frame, so a leak names its spawn site. Comparing
// goroutine IDs rather than a NumGoroutine count means a goroutine
// from an earlier test exiting in the meantime cannot mask a new leak,
// and goroutines that predate the snapshot are never blamed.
func CheckGoroutines(t testing.TB) func() {
	t.Helper()
	before := liveGoroutines()
	return func() {
		t.Helper()
		if leaked := survivors(before, leakPolls); len(leaked) > 0 {
			t.Errorf("%d goroutine(s) outlived the check:\n%s", len(leaked), strings.Join(leaked, "\n"))
		}
	}
}

// WithGOMAXPROCS runs fn with runtime.GOMAXPROCS set to n and restores
// the previous setting before returning. GOMAXPROCS is the only
// parallelism setting: at 1 every parallel stage takes its serial path,
// so schedule twins compare results built at 1 against results built
// at a larger n.
func WithGOMAXPROCS(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// survivors polls, up to polls times, until no goroutine outside before
// is alive, returning the sorted descriptions of the goroutines still
// alive.
func survivors(before map[string]string, polls int) []string {
	for i := 0; ; i++ {
		var leaked []string
		for id, desc := range liveGoroutines() {
			if _, old := before[id]; !old {
				leaked = append(leaked, desc)
			}
		}
		if len(leaked) == 0 || i >= polls {
			sort.Strings(leaked)
			return leaked
		}
		time.Sleep(leakPoll)
	}
}

// liveGoroutines maps the ID of every live goroutine to a one-line
// description: its header (ID and state) and its `created by` frame
// with the spawn site's file and line.
func liveGoroutines() map[string]string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, block := range strings.Split(string(buf), "\n\n") {
		header, frames, _ := strings.Cut(block, "\n")
		id, ok := strings.CutPrefix(header, "goroutine ")
		if !ok {
			continue
		}
		id, _, _ = strings.Cut(id, " ")
		desc := strings.TrimSuffix(header, ":")
		if _, created, ok := strings.Cut(frames, "created by "); ok {
			fn, site, _ := strings.Cut(created, "\n")
			site, _, _ = strings.Cut(strings.TrimSpace(site), " ")
			desc += " created by " + fn + " at " + site
		}
		out[id] = desc
	}
	return out
}
