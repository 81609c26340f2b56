// Command perfbench is the repository benchmark. It measures the
// fivealarms study builder and its risk-query server end to end on
// four seeded workloads and, with --trace 1, reports the layers each
// operation spends its time in. Run it from the repository root:
//
//	bash perfbench/run.sh --workload regen --seed 1 --seconds 20 --trace 0
//
// The workloads (BENCHMARK.json records why each was chosen):
//
//	regen  cold paper regeneration: every operation builds a fresh Study
//	       for a seed never used before and renders every experiment of
//	       `fivealarms all` as JSON
//	fleet  the sharded build at the paper's 2.7 km raster and shard
//	       count, over a 500,000-transceiver fleet
//	warm   four closed-loop HTTP clients reading from studies the
//	       server already holds (every request a cache hit)
//	churn  the same clients sending point lookups that each name a seed
//	       never requested before (every request a cold build)
//
// Each run sets up three times, measures for --seconds, and then checks
// the outputs: the sharded and monolithic paths must agree byte for
// byte, every served body must equal the body the library renders for
// the same study, and every repeat must be identical. Set-up builds the
// study layers of one seed on the check path (regen, fleet) or starts a
// server and answers its first requests (warm, churn).
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics: p50_ms, the median operation (one regeneration,
// one sharded build, or one HTTP request); peak_heap_mb, the heap's
// peak during an operation (median over operations) or, when serving,
// during the whole window; and setup_s, the median set-up. --trace 1
// reports the per-layer metrics of layerMetrics, and with --spans DIR
// writes the spans it recorded there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"fivealarms/internal/rng"
)

// setupReps is how many times every workload sets up; setup_s is the
// median.
const setupReps = 3

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	measure time.Duration
	tr      *tracer
}

// outcome is what every workload returns: the raw measurements the
// metrics are computed from, plus the correctness verdict.
type outcome struct {
	setup     []time.Duration // one per set-up repetition
	latMs     []float64       // one per measured operation
	peakHeap  []float64       // MiB; per operation, or one for the whole window
	attempted int
	failed    int
	problems  []string // correctness failures; empty when correct
	layers    map[string]float64
}

// problemf records a correctness failure.
func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type workload func(rc runConfig) (*outcome, error)

var workloads = map[string]workload{
	"regen": runRegen,
	"fleet": runFleet,
	"warm":  runWarm,
	"churn": runChurn,
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: regen, fleet, warm or churn")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs derive from")
		seconds = flag.Int("seconds", 20, "how long to measure")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
		spans   = flag.String("spans", "", "with --trace 1, write the recorded spans under this directory")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload regen|fleet|warm|churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rc := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		tr:      newTracer(*trace == 1),
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d NumCPU=%d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	out, err := run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect:", p)
	}
	if err := rc.tr.write(*spans, *name, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		os.Exit(1)
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if *trace == 1 {
		for _, l := range layerMetrics {
			res.Metrics[l.name] = metric{Value: out.layers[l.name], Unit: l.unit}
		}
	} else {
		setup := make([]float64, len(out.setup))
		for i, d := range out.setup {
			setup[i] = d.Seconds()
		}
		res.Metrics["p50_ms"] = metric{Value: median(out.latMs), Unit: "ms"}
		res.Metrics["peak_heap_mb"] = metric{Value: median(out.peakHeap), Unit: "MB"}
		res.Metrics["setup_s"] = metric{Value: median(setup), Unit: "s"}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// layerMetrics lists the per-layer metrics in BENCHMARK.json order.
// The first group measures the Go runtime and the operating system
// under every workload, per measured operation. The _pct group is the
// share of operation time spent inside the benchmark's spans around
// each study layer (zero for the serving workloads, which call no study
// layer directly; their spans are per request). tail_ratio is p99 over
// p50 request latency, zero below tailSamples requests.
var layerMetrics = []struct{ name, unit string }{
	{"cpu_ms", "ms"},
	{"gc_cpu_ms", "ms"},
	{"gc_assist_ms", "ms"},
	{"idle_cpu_ms", "ms"},
	{"sched_wait_ms", "ms"},
	{"alloc_mb", "MB"},
	{"gc_cycles", "count"},
	{"build_pct", "%"},
	{"history_pct", "%"},
	{"table1_pct", "%"},
	{"tables23_pct", "%"},
	{"casestudy_pct", "%"},
	{"whp_overlay_pct", "%"},
	{"impact_pct", "%"},
	{"validate_pct", "%"},
	{"mitigation_pct", "%"},
	{"coverage_pct", "%"},
	{"encode_pct", "%"},
	{"tail_ratio", "x"},
}

// seedSource hands out distinct nonzero study seeds derived from the
// run seed, so no two studies of a run share inputs and no run can
// answer from a study an earlier operation built.
type seedSource struct {
	src  *rng.Source
	seen map[uint64]bool
}

func newSeedSource(runSeed uint64) *seedSource {
	return &seedSource{src: rng.New(runSeed), seen: map[uint64]bool{}}
}

func (s *seedSource) next() uint64 {
	for {
		v := 1 + s.src.Uint64()%1_000_000_000
		if !s.seen[v] {
			s.seen[v] = true
			return v
		}
	}
}
