package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// now is the benchmark's wall clock. Measuring elapsed time is the
// point of this program; every input it generates comes from the
// --seed argument through internal/rng, never from the clock.
func now() time.Time {
	return time.Now() //fivealarms:allow(seededrand) the benchmark measures wall-clock time; its inputs derive from --seed
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mb converts bytes to MiB.
func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// cpuTime is the processor time the whole process has used, user plus
// system, across all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtime/metrics names read by the spans, the heap sampler and the
// per-layer window.
const (
	allocsMetric   = "/gc/heap/allocs:bytes"
	heapMetric     = "/memory/classes/heap/objects:bytes"
	gcCPUMetric    = "/cpu/classes/gc/total:cpu-seconds"
	assistMetric   = "/cpu/classes/gc/mark/assist:cpu-seconds"
	idleMetric     = "/cpu/classes/idle:cpu-seconds"
	schedMetric    = "/sched/latencies:seconds"
	gcCyclesMetric = "/gc/cycles/total:gc-cycles"
)

// readMetric returns the current value of one runtime/metrics counter.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// runtimeReading is a snapshot of the counters the per-layer report
// takes over a measured window.
type runtimeReading struct {
	cpu                 time.Duration
	gcCPU, assist, idle float64 // seconds
	schedWait           float64 // seconds, summed from the histogram
	allocs, gcCycles    uint64
}

// readRuntime collects a garbage cycle first, because the runtime
// refreshes its CPU-class estimates at the end of each cycle.
func readRuntime() runtimeReading {
	runtime.GC()
	s := []metrics.Sample{{Name: gcCPUMetric}, {Name: assistMetric}, {Name: idleMetric},
		{Name: schedMetric}, {Name: allocsMetric}, {Name: gcCyclesMetric}}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return s[i].Value.Uint64()
	}
	r := runtimeReading{cpu: cpuTime(), gcCPU: f(0), assist: f(1), idle: f(2), allocs: u(4), gcCycles: u(5)}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		r.schedWait = histogramSum(s[3].Value.Float64Histogram())
	}
	return r
}

// histogramSum estimates the sum of a histogram's samples from bucket
// midpoints (an open-ended bucket counts at its finite edge).
func histogramSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		sum += float64(n) * mid
	}
	return sum
}

// perOpSince records the runtime layers of the window that began at
// start, divided over ops operations.
func perOpSince(start runtimeReading, ops int, layers map[string]float64) {
	if ops == 0 {
		return
	}
	end := readRuntime()
	n := float64(ops)
	layers["cpu_ms"] = ms(end.cpu-start.cpu) / n
	layers["gc_cpu_ms"] = 1000 * (end.gcCPU - start.gcCPU) / n
	layers["gc_assist_ms"] = 1000 * (end.assist - start.assist) / n
	layers["idle_cpu_ms"] = 1000 * (end.idle - start.idle) / n
	layers["sched_wait_ms"] = 1000 * (end.schedWait - start.schedWait) / n
	layers["alloc_mb"] = mb(end.allocs-start.allocs) / n
	layers["gc_cycles"] = float64(end.gcCycles-start.gcCycles) / n
}

// span is one timed call into a layer: which operation it belongs to,
// the enclosing span, its interval relative to the start of the run,
// and the heap bytes allocated during it (by every goroutine, so a
// layer that fans out is charged for its workers).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for an operation root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	AllocB uint64 `json:"alloc_b"`

	alloc0 uint64
}

// tracer records spans in memory when on; when off every call is a
// no-op, so the untraced run pays nothing for the instrumentation.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, op, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Op: op, Parent: parent,
		Start:  int64(now().Sub(t.origin)),
		alloc0: readMetric(allocsMetric),
	})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.End = int64(now().Sub(t.origin))
	s.AllocB = readMetric(allocsMetric) - s.alloc0
}

// record adds a finished root span timed elsewhere.
func (t *tracer) record(name string, op int, start, end time.Time) {
	if t.on {
		t.spans = append(t.spans, span{Name: name, Op: op, Parent: -1,
			Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
	}
}

// share is the time inside spans named name as a percentage of the
// time inside operation spans ("op").
func (t *tracer) share(name string) float64 {
	var part, total int64
	for _, s := range t.spans {
		switch s.Name {
		case "op":
			total += s.End - s.Start
		case name:
			part += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// write saves the spans as JSON under dir, named after the run.
func (t *tracer) write(dir, workload string, seed uint64) error {
	if !t.on || dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), body, 0o644)
}

// heapSampler tracks the peak of the heap's object bytes (live plus
// not yet swept) by reading runtime/metrics every heapSampleEvery.
type heapSampler struct {
	peak atomic.Uint64
}

const heapSampleEvery = 2 * time.Millisecond

// run samples until ctx is done; wg.Done marks its exit.
func (h *heapSampler) run(ctx context.Context, wg *sync.WaitGroup) {
	defer wg.Done()
	tick := time.NewTicker(heapSampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			h.observe()
		}
	}
}

// observe folds the current heap size into the peak.
func (h *heapSampler) observe() {
	v := readMetric(heapMetric)
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// reset starts a new peak from the current heap size.
func (h *heapSampler) reset() {
	h.peak.Store(0)
	h.observe()
}

// startSampler starts a heap sampler; stop ends it and waits for its
// goroutine.
func startSampler() (h *heapSampler, stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	h = &heapSampler{}
	h.observe()
	wg.Add(1)
	go h.run(ctx, &wg)
	return h, func() {
		cancel()
		wg.Wait()
	}
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for none. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
