package serve

// httptest suite for the risk-query server: success paths for every
// endpoint, malformed-input 400s, 404s, the 499-style abort for
// canceled request contexts, metrics accounting, study-cache
// singleflight/LRU behavior and concurrent access (exercised under
// `make race`).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fivealarms"
	"fivealarms/internal/serve/api"
)

// testCfg is the suite's study scale: small enough that the first
// build stays well under a second.
var testCfg = fivealarms.Config{
	Seed: 42, CellSizeM: 40000, Transceivers: 5000, MappedFiresPerSeason: 5,
}

var (
	srvOnce sync.Once
	srv     *Server
	srvErr  error
)

// testServer returns a shared warm server; building a study per test
// would dominate the suite's runtime.
func testServer(t *testing.T) *Server {
	t.Helper()
	srvOnce.Do(func() {
		srv, srvErr = New(context.Background(), Options{Config: testCfg})
		if srvErr == nil {
			srvErr = srv.Warm(context.Background())
		}
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srv
}

// do runs one request through the handler and returns the recorder.
func do(t *testing.T, s *Server, method, target string, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

// decode unmarshals a response body, failing the test on malformed JSON.
func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %T from %s: %v", v, w.Body.String(), err)
	}
	return v
}

// testBreaker returns a permissive breaker for cache-focused tests:
// three failures to open, millisecond backoffs.
func testBreaker() *buildBreaker {
	return newBuildBreaker(3, time.Millisecond, 10*time.Millisecond, 1)
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	w := do(t, s, "GET", "/v1/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	h := decode[api.Health](t, w)
	if h.Version != "v1" || h.Status != "ok" || h.DefaultSeed != 42 || h.StudiesCached < 1 {
		t.Errorf("health = %+v", h)
	}
}

func TestRiskPoint(t *testing.T) {
	s := testServer(t)
	// Sacramento-ish: on CONUS, in California.
	w := do(t, s, "GET", "/v1/risk/point?lon=-121.5&lat=38.6", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	p := decode[api.PointRisk](t, w)
	if !p.OnConus || p.State != "CA" {
		t.Errorf("point = %+v, want on-CONUS CA", p)
	}
	if p.HazardClass == "" || p.HazardValue < 0 || p.HazardValue > 1 {
		t.Errorf("hazard fields malformed: %+v", p)
	}
	if p.NearestFireDistM < -1 {
		t.Errorf("nearest fire distance = %v", p.NearestFireDistM)
	}

	// Mid-Atlantic: off CONUS, no state, distances still well-formed.
	w = do(t, s, "GET", "/v1/risk/point?lon=-40&lat=35", "")
	off := decode[api.PointRisk](t, w)
	if w.Code != http.StatusOK || off.OnConus || off.State != "" {
		t.Errorf("ocean point: code %d, %+v", w.Code, off)
	}

	// Determinism: the identical query returns the identical bytes.
	a := do(t, s, "GET", "/v1/risk/point?lon=-121.5&lat=38.6", "").Body.String()
	b := do(t, s, "GET", "/v1/risk/point?lon=-121.5&lat=38.6", "").Body.String()
	if a != b {
		t.Error("identical point queries produced different bytes")
	}
}

func TestRiskPointBadInput(t *testing.T) {
	s := testServer(t)
	cases := []string{
		"/v1/risk/point",                          // both missing
		"/v1/risk/point?lon=-120",                 // lat missing
		"/v1/risk/point?lon=abc&lat=38",           // not a number
		"/v1/risk/point?lon=NaN&lat=38",           // not finite
		"/v1/risk/point?lon=-500&lat=38",          // out of range
		"/v1/risk/point?lon=-120&lat=95",          // out of range
		"/v1/risk/point?lon=-120&lat=38&seed=-1",  // bad seed override
		"/v1/risk/point?lon=-120&lat=38&seed=zzz", // bad seed override
	}
	for _, target := range cases {
		w := do(t, s, "GET", target, "")
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", target, w.Code, w.Body)
			continue
		}
		e := decode[api.Error](t, w)
		if e.Version != "v1" || e.Status != http.StatusBadRequest || e.Message == "" {
			t.Errorf("%s: error body = %+v", target, e)
		}
	}
}

func TestRiskBBox(t *testing.T) {
	s := testServer(t)
	// All of California and then some.
	w := do(t, s, "GET", "/v1/risk/bbox?min_lon=-125&min_lat=32&max_lon=-114&max_lat=42", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	b := decode[api.BBoxRisk](t, w)
	if b.Transceivers == 0 {
		t.Error("California box contains no transceivers")
	}
	sum := 0
	for _, n := range b.ByClass {
		sum += n
	}
	if sum != b.Transceivers {
		t.Errorf("by_class sums to %d, want %d", sum, b.Transceivers)
	}
	if b.AtRisk > b.Transceivers || b.InHistoricalPerimeter > b.Transceivers {
		t.Errorf("counts inconsistent: %+v", b)
	}

	// Degenerate box (a point) is valid; inverted box is not.
	if w := do(t, s, "GET", "/v1/risk/bbox?min_lon=-120&min_lat=38&max_lon=-120&max_lat=38", ""); w.Code != http.StatusOK {
		t.Errorf("point-box status = %d", w.Code)
	}
	if w := do(t, s, "GET", "/v1/risk/bbox?min_lon=-114&min_lat=32&max_lon=-125&max_lat=42", ""); w.Code != http.StatusBadRequest {
		t.Errorf("inverted-box status = %d, want 400", w.Code)
	}
	if w := do(t, s, "GET", "/v1/risk/bbox?min_lon=-125&min_lat=32&max_lon=-114", ""); w.Code != http.StatusBadRequest {
		t.Errorf("missing-param status = %d, want 400", w.Code)
	}
}

func TestTables(t *testing.T) {
	s := testServer(t)
	t1 := decode[api.Table1](t, do(t, s, "GET", "/v1/tables/1", ""))
	if len(t1.Rows) == 0 || t1.Version != "v1" {
		t.Errorf("table1 = %+v", t1)
	}
	total := 0
	for _, r := range t1.Rows {
		total += r.TransceiversIn
	}
	if total != t1.TotalInPerimeters {
		t.Errorf("total_in_perimeters = %d, rows sum to %d", t1.TotalInPerimeters, total)
	}
	t2 := decode[api.Table2](t, do(t, s, "GET", "/v1/tables/2", ""))
	if len(t2.Rows) == 0 {
		t.Error("table2 empty")
	}
	t3 := decode[api.Table3](t, do(t, s, "GET", "/v1/tables/3", ""))
	if len(t3.Rows) == 0 {
		t.Error("table3 empty")
	}
	if w := do(t, s, "GET", "/v1/tables/4", ""); w.Code != http.StatusNotFound {
		t.Errorf("table 4 status = %d, want 404", w.Code)
	}
	if w := do(t, s, "GET", "/v1/tables/one", ""); w.Code != http.StatusNotFound {
		t.Errorf("table 'one' status = %d, want 404", w.Code)
	}
}

func TestOverlayAndValidate(t *testing.T) {
	s := testServer(t)
	o := decode[api.WHPOverlay](t, do(t, s, "GET", "/v1/overlay/whp", ""))
	// The generator deduplicates colliding placements, so the fleet is
	// slightly under the requested snapshot size.
	if o.Total == 0 || o.Total > testCfg.Transceivers {
		t.Errorf("overlay total = %d, want (0, %d]", o.Total, testCfg.Transceivers)
	}
	atRisk := o.ByClass["moderate"] + o.ByClass["high"] + o.ByClass["very-high"]
	if atRisk != o.AtRisk {
		t.Errorf("at_risk = %d, class sum = %d", o.AtRisk, atRisk)
	}
	for i := 1; i < len(o.States); i++ {
		if o.States[i-1].State >= o.States[i].State {
			t.Errorf("states not sorted: %q before %q", o.States[i-1].State, o.States[i].State)
		}
	}
	v := decode[api.Validation](t, do(t, s, "GET", "/v1/validate", ""))
	if v.Version != "v1" || v.AccuracyPct < 0 || v.AccuracyPct > 100 {
		t.Errorf("validation = %+v", v)
	}
}

func TestExtend(t *testing.T) {
	s := testServer(t)
	w := do(t, s, "POST", "/v1/extend", `{"cell_size_m": 0, "dist_m": 0}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	coarse := decode[api.Extend](t, w)
	if coarse.Fine || coarse.VHAfter < coarse.VHBefore {
		t.Errorf("coarse extend = %+v", coarse)
	}
	fine := decode[api.Extend](t, do(t, s, "POST", "/v1/extend", `{"cell_size_m": 800}`))
	if !fine.Fine || fine.CellSizeM != 800 {
		t.Errorf("fine extend = %+v", fine)
	}

	bad := []string{
		``,                                  // empty body
		`{`,                                 // malformed JSON
		`{"cell_size_m": "x"}`,              // wrong type
		`{"cell_size_m": 50}`,               // below the floor
		`{"cell_size_m": -1}`,               // negative
		`{"dist_m": -5}`,                    // negative
		`{"dist_m": 1e9}`,                   // beyond the cap
		`{"unknown_field": 1}`,              // unknown field rejected
		`{"cell_size_m": 800, "dist_m": 0,`, // truncated
	}
	for _, body := range bad {
		if w := do(t, s, "POST", "/v1/extend", body); w.Code != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, w.Code)
		}
	}
	// Wrong method on the route.
	if w := do(t, s, "GET", "/v1/extend", ""); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/extend status = %d, want 405", w.Code)
	}
}

// TestCanceledRequest asserts the 499-style abort: a request arriving
// with an already-canceled context fails with the client-closed status
// without touching the study.
func TestCanceledRequest(t *testing.T) {
	s := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest("GET", "/v1/risk/point?lon=-120&lat=38", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d (body %s)", w.Code, StatusClientClosedRequest, w.Body)
	}
	e := decode[api.Error](t, w)
	if e.Status != StatusClientClosedRequest {
		t.Errorf("error body = %+v", e)
	}
}

// TestCanceledWaiterDoesNotKillBuild: a waiter abandoning a shared
// in-flight build gets its context error while the build completes for
// the next caller.
func TestCanceledWaiterDoesNotKillBuild(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var builds atomic.Int32
	c := newStudyCache(context.Background(), 2, testBreaker(),
		func(ctx context.Context, cfg fivealarms.Config) (*fivealarms.Study, error) {
			builds.Add(1)
			close(started)
			<-release
			return &fivealarms.Study{}, nil
		})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, testCfg)
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v, want context.Canceled", err)
	}
	close(release)
	if _, err := c.Get(context.Background(), testCfg); err != nil {
		t.Fatalf("second caller: %v", err)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("builds = %d, want 1 (singleflight)", n)
	}
}

func TestCacheSingleflightAndLRU(t *testing.T) {
	var builds atomic.Int32
	c := newStudyCache(context.Background(), 2, testBreaker(),
		func(ctx context.Context, cfg fivealarms.Config) (*fivealarms.Study, error) {
			builds.Add(1)
			return &fivealarms.Study{}, nil
		})

	// 16 concurrent requests for one key → one build.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Get(context.Background(), testCfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds = %d, want 1", n)
	}

	// Three distinct seeds through a 2-slot cache evict the LRU.
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := testCfg
		cfg.Seed = seed
		if _, err := c.Get(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Errorf("cache len = %d, want 2", c.Len())
	}
	before := builds.Load()
	cfg := testCfg
	cfg.Seed = 3 // MRU: still resident
	if _, err := c.Get(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != before {
		t.Error("MRU entry was rebuilt")
	}
}

func TestCacheFailedBuildRearms(t *testing.T) {
	var builds atomic.Int32
	c := newStudyCache(context.Background(), 2, testBreaker(),
		func(ctx context.Context, cfg fivealarms.Config) (*fivealarms.Study, error) {
			if builds.Add(1) == 1 {
				return nil, fmt.Errorf("transient failure")
			}
			return &fivealarms.Study{}, nil
		})
	if _, err := c.Get(context.Background(), testCfg); err == nil {
		t.Fatal("first build should fail")
	}
	if _, err := c.Get(context.Background(), testCfg); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("builds = %d, want 2 (failure re-arms)", n)
	}
}

// TestSeedOverrideBuildsDistinctStudy runs on a private server: the
// shared suite server may already hold the seed-43 study from an
// earlier test or an earlier -count run.
func TestSeedOverrideBuildsDistinctStudy(t *testing.T) {
	s := chaosServer(t, Options{Config: testCfg})
	base := decode[api.Health](t, do(t, s, "GET", "/v1/healthz", "")).StudiesCached
	w := do(t, s, "GET", "/v1/tables/1?seed=43", "")
	if w.Code != http.StatusOK {
		t.Fatalf("seed override status = %d, body %s", w.Code, w.Body)
	}
	after := decode[api.Health](t, do(t, s, "GET", "/v1/healthz", "")).StudiesCached
	if after <= base {
		t.Errorf("studies cached %d -> %d, want growth after seed override", base, after)
	}
}

func TestMetricsAccounting(t *testing.T) {
	s := testServer(t)
	read := func() map[string]api.EndpointMetrics {
		m := decode[api.Metrics](t, do(t, s, "GET", "/v1/metrics", ""))
		out := map[string]api.EndpointMetrics{}
		for _, e := range m.Endpoints {
			out[e.Endpoint] = e
		}
		return out
	}
	before := read()
	do(t, s, "GET", "/v1/risk/point?lon=-120&lat=38", "")
	do(t, s, "GET", "/v1/risk/point?lon=bogus&lat=38", "")
	after := read()
	if d := after["risk_point"].Requests - before["risk_point"].Requests; d != 2 {
		t.Errorf("risk_point requests grew by %d, want 2", d)
	}
	if d := after["risk_point"].Errors - before["risk_point"].Errors; d != 1 {
		t.Errorf("risk_point errors grew by %d, want 1", d)
	}
	if p := after["risk_point"].P50Ms; p <= 0 {
		t.Errorf("p50 = %v, want a positive bucket bound", p)
	}
}

func TestMetricsQuantiles(t *testing.T) {
	m := NewMetrics("ep")
	if q := m.endpoints["ep"].quantile(0.5); q != -1 {
		t.Errorf("empty quantile = %v, want -1", q)
	}
	for i := 0; i < 99; i++ {
		m.Observe("ep", 200*time.Microsecond, false) // 0.2ms → 0.25 bucket
	}
	m.Observe("ep", 40*time.Millisecond, true) // one slow error → 50 bucket
	st := m.endpoints["ep"]
	if q := st.quantile(0.5); q != 0.25 {
		t.Errorf("p50 = %v, want 0.25", q)
	}
	if q := st.quantile(0.99); q != 0.25 {
		t.Errorf("p99 = %v, want 0.25 (99 of 100 in bucket)", q)
	}
	if q := st.quantile(1.0); q != 50 {
		t.Errorf("p100 = %v, want 50", q)
	}
	// Overflow observations report the largest finite bound.
	m.Observe("ep", time.Hour, false)
	if q := st.quantile(1.0); q != 5000 {
		t.Errorf("overflow quantile = %v, want 5000", q)
	}
	snap := m.Snapshot()
	if len(snap.Endpoints) != 1 || snap.Endpoints[0].Requests != 101 || snap.Endpoints[0].Errors != 1 {
		t.Errorf("snapshot = %+v", snap.Endpoints)
	}
}

// TestMetricsNearestRank pins the rank a quantile reads at small counts:
// the nearest rank ⌈q·N⌉, so p99 of two requests is the slower one and
// p50 of three the middle one.
func TestMetricsNearestRank(t *testing.T) {
	var two endpointStats
	two.observe(0.2, false) // 0.25 bucket
	two.observe(40, false)  // 50 bucket
	if q := two.quantile(0.99); q != 50 {
		t.Errorf("p99 of two = %v, want 50 (the slower bucket)", q)
	}
	if q := two.quantile(0.5); q != 0.25 {
		t.Errorf("p50 of two = %v, want 0.25", q)
	}
	var three endpointStats
	three.observe(0.2, false) // 0.25 bucket
	three.observe(3, false)   // 5 bucket
	three.observe(40, false)  // 50 bucket
	if q := three.quantile(0.5); q != 5 {
		t.Errorf("p50 of three = %v, want 5 (the middle bucket)", q)
	}
}

// TestMetricsEdgeBuckets pins the histogram boundary semantics: a
// zero-latency observation lands in the first bucket, an observation
// exactly on the last finite bound (5000 ms) is inclusive, and
// anything beyond goes to the overflow bucket.
func TestMetricsEdgeBuckets(t *testing.T) {
	var st endpointStats
	st.observe(0, false)
	if got := st.buckets[0].Load(); got != 1 {
		t.Errorf("0ms landed outside the first bucket (bucket0 = %d)", got)
	}
	st.observe(5000, false)
	if got := st.buckets[len(bucketBoundsMs)-1].Load(); got != 1 {
		t.Errorf("5000ms not inclusive in the last finite bucket (got %d)", got)
	}
	st.observe(5000.0001, false)
	st.observe(1e12, false)
	if got := st.buckets[numBuckets-1].Load(); got != 2 {
		t.Errorf("overflow bucket = %d, want 2", got)
	}
	// Quantiles over edge data stay within the finite bounds.
	if q := st.quantile(1.0); q != bucketBoundsMs[len(bucketBoundsMs)-1] {
		t.Errorf("p100 with overflow = %v, want %v", q, bucketBoundsMs[len(bucketBoundsMs)-1])
	}
	if q := st.quantile(0.0); q != bucketBoundsMs[0] {
		t.Errorf("p0 = %v, want first bound %v", q, bucketBoundsMs[0])
	}
}

// TestCacheConcurrentEvictionAndRearm hammers a 2-slot cache from many
// goroutines across six keys where half the builds always fail:
// eviction, failure re-arm, last-good recording and the breaker race
// together (meaningful under -race), and the cache must end bounded
// and healthy for the succeeding keys.
func TestCacheConcurrentEvictionAndRearm(t *testing.T) {
	var builds atomic.Int32
	c := newStudyCache(context.Background(), 2, testBreaker(),
		func(ctx context.Context, cfg fivealarms.Config) (*fivealarms.Study, error) {
			builds.Add(1)
			if cfg.Seed%2 == 1 {
				return nil, fmt.Errorf("seed %d always fails", cfg.Seed)
			}
			return &fivealarms.Study{}, nil
		})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cfg := testCfg
				cfg.Seed = uint64(1 + (g+i)%6)
				e, err := c.Get(context.Background(), cfg)
				if cfg.Seed%2 == 0 {
					// Even seeds may be shed while odd-seed circuits
					// churn, but a granted build must succeed.
					if err == nil && e.study == nil {
						t.Errorf("seed %d: nil study without error", cfg.Seed)
					}
				} else if err == nil {
					t.Errorf("seed %d: build should always fail", cfg.Seed)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 2 {
		t.Errorf("cache len = %d, want <= 2", n)
	}
	// Failed keys re-armed throughout: far more builds than keys.
	if n := builds.Load(); n < 6 {
		t.Errorf("builds = %d, want re-arming across keys", n)
	}
	// A succeeding key is still servable after the churn.
	cfg := testCfg
	cfg.Seed = 2
	if _, err := c.Get(context.Background(), cfg); err != nil {
		t.Errorf("post-churn Get(seed 2): %v", err)
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	bad := testCfg
	bad.Transceivers = -1
	if _, err := New(context.Background(), Options{Config: bad}); err == nil {
		t.Fatal("invalid config accepted at server construction")
	}
}

// TestConcurrentMixedLoad hammers the warm server from many goroutines
// (meaningful under `make race`).
func TestConcurrentMixedLoad(t *testing.T) {
	s := testServer(t)
	targets := []string{
		"/v1/healthz",
		"/v1/metrics",
		"/v1/risk/point?lon=-120.1&lat=38.2",
		"/v1/risk/bbox?min_lon=-125&min_lat=32&max_lon=-114&max_lat=42",
		"/v1/tables/1",
		"/v1/tables/2",
		"/v1/overlay/whp",
		"/v1/validate",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				target := targets[(g+i)%len(targets)]
				w := do(t, s, "GET", target, "")
				if w.Code != http.StatusOK {
					t.Errorf("%s: status %d", target, w.Code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGracefulShutdownDrains starts a real listener, parks a request
// in-flight, sends Shutdown and asserts the request completes rather
// than being aborted.
func TestGracefulShutdownDrains(t *testing.T) {
	s := testServer(t)
	slow := make(chan struct{})
	inFlight := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(inFlight)
		<-slow
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "drained")
	})
	mux.Handle("/", s.Handler())
	ts := httptest.NewServer(mux)
	hs := ts.Config

	resc := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/slow")
		if err == nil {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("slow request status %d", resp.StatusCode)
			}
		}
		resc <- err
	}()
	<-inFlight

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- hs.Shutdown(ctx)
	}()
	// Shutdown must wait for the parked request; release it and both
	// the request and the drain should finish cleanly.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before the in-flight request finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(slow)
	if err := <-resc; err != nil {
		t.Errorf("in-flight request: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestStudyKeyCoversShardingFields: the cache key must distinguish
// configurations that differ only in the band count or the snapshot
// source, so a 4-band or snapshot-loaded study can never be served from
// a one-band entry (the results are identical, but the operator asked
// for a specific execution shape and ShardStats must reflect it).
// Shards 0 and 1 are the same one-band study and share one key.
func TestStudyKeyCoversShardingFields(t *testing.T) {
	base := keyOf(testCfg)
	one := testCfg
	one.Shards = 1
	if testCfg.Shards != 0 || keyOf(one) != base {
		t.Error("Shards 0 and 1 key different entries for the same one-band study")
	}
	sharded := testCfg
	sharded.Shards = 4
	if keyOf(sharded) == base {
		t.Error("Shards does not participate in the study key")
	}
	snap := testCfg
	snap.SnapshotPath = "/tmp/fleet.fa5c"
	if keyOf(snap) == base {
		t.Error("SnapshotPath does not participate in the study key")
	}
}
