package serve

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"fivealarms/internal/serve/api"
)

// bucketBoundsMs are the upper bounds (milliseconds, inclusive) of the
// fixed latency histogram every endpoint maintains. One extra overflow
// bucket catches observations above the last bound. The geometry is
// fixed so the histogram is always-on and allocation-free on the
// request path (modeled on rdk's compact ftdc telemetry): recording is
// one atomic increment, and quantile queries answer with the upper
// bound of the containing bucket.
var bucketBoundsMs = [...]float64{
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000,
}

const numBuckets = len(bucketBoundsMs) + 1 // + overflow

// endpointStats is one endpoint's always-on counters. All fields are
// atomics: the request path never takes a lock.
type endpointStats struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	buckets  [numBuckets]atomic.Uint64
}

// observe records one request with the given latency and error flag.
func (e *endpointStats) observe(ms float64, isError bool) {
	e.requests.Add(1)
	if isError {
		e.errors.Add(1)
	}
	i := sort.SearchFloat64s(bucketBoundsMs[:], ms)
	e.buckets[i].Add(1)
}

// quantile returns the upper bound of the bucket containing the q'th
// latency quantile, -1 when nothing has been observed. The quantile is
// the observation of nearest rank ⌈q·N⌉ (at least 1) among N. The
// overflow bucket reports the largest finite bound: the histogram
// cannot distinguish latencies beyond it.
func (e *endpointStats) quantile(q float64) float64 {
	var counts [numBuckets]uint64
	total := uint64(0)
	for i := range e.buckets {
		counts[i] = e.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return -1
	}
	// The rank in integer arithmetic over q in parts per million, so a
	// q·N that is an integer is not pushed to the next rank by rounding.
	const ppm = 1_000_000
	target := (uint64(math.Round(q*ppm))*total + ppm - 1) / ppm
	if target < 1 {
		target = 1
	}
	cum := uint64(0)
	for i, c := range counts {
		cum += c
		if cum >= target {
			if i < len(bucketBoundsMs) {
				return bucketBoundsMs[i]
			}
			break
		}
	}
	return bucketBoundsMs[len(bucketBoundsMs)-1]
}

// resilienceStats counts the overload-resilience machinery's decisions:
// sheds by kind, server-deadline expiries, recovered panics, degraded
// responses, and circuit-breaker state transitions. All atomics — the
// shed path is as lock-free as the success path.
type resilienceStats struct {
	shed429       atomic.Uint64
	shed503       atomic.Uint64
	timeouts      atomic.Uint64
	panics        atomic.Uint64
	degraded      atomic.Uint64
	breakerOpens  atomic.Uint64
	breakerProbes atomic.Uint64
	breakerCloses atomic.Uint64
}

// Metrics holds the per-endpoint request statistics behind GET
// /v1/metrics. Endpoints register once at server construction; after
// that the map is read-only and the request path is lock-free.
type Metrics struct {
	endpoints  map[string]*endpointStats
	names      []string // sorted, for deterministic snapshots
	resilience resilienceStats
}

// NewMetrics returns a Metrics tracking exactly the named endpoints.
func NewMetrics(names ...string) *Metrics {
	m := &Metrics{endpoints: make(map[string]*endpointStats, len(names))}
	for _, n := range names {
		if _, ok := m.endpoints[n]; !ok {
			m.endpoints[n] = &endpointStats{}
			m.names = append(m.names, n)
		}
	}
	sort.Strings(m.names)
	return m
}

// Observe records one request against the named endpoint. Unknown
// names are dropped (the router only passes registered names).
func (m *Metrics) Observe(name string, d time.Duration, isError bool) {
	if e := m.endpoints[name]; e != nil {
		e.observe(float64(d.Nanoseconds())/1e6, isError)
	}
}

// CountShed records one load-shedding rejection of the given kind
// (queue full → 429, breaker open → 503).
func (m *Metrics) CountShed(kind shedKind) {
	if kind == shedQueue {
		m.resilience.shed429.Add(1)
	} else {
		m.resilience.shed503.Add(1)
	}
}

// CountTimeout records one request shed because its server-side
// deadline expired before it could be served.
func (m *Metrics) CountTimeout() { m.resilience.timeouts.Add(1) }

// CountPanic records one handler panic recovered into a typed 500.
func (m *Metrics) CountPanic() { m.resilience.panics.Add(1) }

// CountDegraded records one response served from the last-known-good
// study instead of the requested one.
func (m *Metrics) CountDegraded() { m.resilience.degraded.Add(1) }

// CountBreakerOpen, CountBreakerProbe and CountBreakerClose record the
// build circuit breaker's state transitions.
func (m *Metrics) CountBreakerOpen() { m.resilience.breakerOpens.Add(1) }

// CountBreakerProbe records one open → half-open probe admission.
func (m *Metrics) CountBreakerProbe() { m.resilience.breakerProbes.Add(1) }

// CountBreakerClose records one circuit closing after a successful
// probe.
func (m *Metrics) CountBreakerClose() { m.resilience.breakerCloses.Add(1) }

// Snapshot renders the current counters as the v1 metrics DTO, one row
// per endpoint in name order. Resilience is always present in the
// snapshot (the caller fills in the limiter gauges).
func (m *Metrics) Snapshot() api.Metrics {
	out := api.Metrics{Meta: api.NewMeta()}
	for _, n := range m.names {
		e := m.endpoints[n]
		out.Endpoints = append(out.Endpoints, api.EndpointMetrics{
			Endpoint: n,
			Requests: e.requests.Load(),
			Errors:   e.errors.Load(),
			P50Ms:    e.quantile(0.50),
			P99Ms:    e.quantile(0.99),
		})
	}
	r := &m.resilience
	out.Resilience = &api.Resilience{
		Shed429:       r.shed429.Load(),
		Shed503:       r.shed503.Load(),
		Timeouts:      r.timeouts.Load(),
		Panics:        r.panics.Load(),
		Degraded:      r.degraded.Load(),
		BreakerOpens:  r.breakerOpens.Load(),
		BreakerProbes: r.breakerProbes.Load(),
		BreakerCloses: r.breakerCloses.Load(),
	}
	return out
}
