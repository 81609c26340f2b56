package serve

// Chaos suite for the overload-resilience layer, driven by
// internal/faults through Server.SetInjectionHook: overload sheds
// instead of crashing or hanging, handler panics become typed 500s,
// build failures open the circuit breaker deterministically, degraded
// mode serves the last-known-good study with the v1 marker, and the
// storm leaves no goroutines behind. Run under -race by `make chaos-serve`.

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fivealarms/internal/faults"
	"fivealarms/internal/serve/api"
)

// chaosServer builds a private warm server (never the shared suite
// server: chaos mutates injection hooks and breaker clocks).
func chaosServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Config.Seed == 0 {
		opts.Config = testCfg
	}
	s, err := New(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

// metricsSnapshot reads /v1/metrics through the full middleware stack.
func metricsSnapshot(t *testing.T, s *Server) api.Metrics {
	t.Helper()
	w := do(t, s, "GET", "/v1/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", w.Code)
	}
	return decode[api.Metrics](t, w)
}

// TestChaosOverloadShedsNotCrashes drives the server at 4× its
// admission capacity with injected handler latency: every request must
// resolve promptly to 200, 429 or 503 — never hang, never 5xx-crash —
// at least some must be shed, and the storm must leave no goroutines
// or capacity behind.
func TestChaosOverloadShedsNotCrashes(t *testing.T) {
	s := chaosServer(t, Options{
		Config:       testCfg,
		MaxInFlight:  4,
		MaxQueue:     4,
		ReadDeadline: 250 * time.Millisecond,
	})
	inj := faults.New(1)
	inj.DelayOn("serve/handler/risk_point", 50*time.Millisecond)
	s.SetInjectionHook(inj.Hook())

	check := faults.CheckGoroutines(t)

	const workers = 32 // 4× the weight capacity, 4× the queue
	const perWorker = 4
	var mu sync.Mutex
	statuses := map[int]int{}
	var worst time.Duration
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				start := now()
				w := do(t, s, "GET", "/v1/risk/point?lon=-120&lat=38", "")
				d := time.Since(start)
				mu.Lock()
				statuses[w.Code]++
				if d > worst {
					worst = d
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	for code := range statuses {
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("unexpected status %d under overload (distribution %v)", code, statuses)
		}
	}
	if statuses[http.StatusOK] == 0 {
		t.Errorf("no request succeeded under overload: %v", statuses)
	}
	shed := statuses[http.StatusTooManyRequests] + statuses[http.StatusServiceUnavailable]
	if shed == 0 {
		t.Errorf("nothing shed at 4x oversubscription: %v", statuses)
	}
	// Bounded worst-case latency: deadline plus generous slack, far
	// below what an unbounded queue would produce (128 requests × 50ms
	// serialized through 4 slots ≈ 1.6s+ tail).
	if worst > 2*time.Second {
		t.Errorf("worst latency = %v, want bounded by deadline+slack", worst)
	}

	m := metricsSnapshot(t, s)
	if m.Resilience == nil {
		t.Fatal("metrics missing resilience block")
	}
	if m.Resilience.Shed429+m.Resilience.Shed503+m.Resilience.Timeouts == 0 {
		t.Errorf("resilience counters recorded nothing: %+v", m.Resilience)
	}
	if m.Resilience.InFlight != 0 || m.Resilience.QueueDepth != 0 {
		t.Errorf("capacity leaked: in_flight=%d queue_depth=%d",
			m.Resilience.InFlight, m.Resilience.QueueDepth)
	}
	check()
}

// TestChaosHandlerPanicIsTyped500: an injected handler panic is
// recovered into a JSON 500 carrying the request ID, counted, and the
// server keeps serving.
func TestChaosHandlerPanicIsTyped500(t *testing.T) {
	s := chaosServer(t, Options{Config: testCfg})
	inj := faults.New(1)
	inj.PanicOn("serve/handler/tables", nil)
	s.SetInjectionHook(inj.Hook())

	w := do(t, s, "GET", "/v1/tables/1", "")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", w.Code, w.Body)
	}
	e := decode[api.Error](t, w)
	if e.Version != "v1" || e.Status != http.StatusInternalServerError || e.Message == "" {
		t.Errorf("error body = %+v", e)
	}
	if id := w.Header().Get("X-Request-Id"); id == "" || !strings.Contains(e.Message, id) {
		t.Errorf("panic 500 should carry the request id %q in %q", id, e.Message)
	}
	if m := metricsSnapshot(t, s); m.Resilience.Panics != 1 {
		t.Errorf("panics counter = %d, want 1", m.Resilience.Panics)
	}

	// Healed: the same route serves again.
	inj.Reset()
	if w := do(t, s, "GET", "/v1/tables/1", ""); w.Code != http.StatusOK {
		t.Errorf("post-panic status = %d, want 200", w.Code)
	}
}

// TestChaosBreakerOpensAndRecovers walks the circuit deterministically
// on a fake clock: threshold build failures open it (503 + Retry-After
// without attempting a build), the backoff admits a half-open probe,
// and a healed build closes it again — all visible in the metrics.
func TestChaosBreakerOpensAndRecovers(t *testing.T) {
	s := chaosServer(t, Options{
		Config:           testCfg,
		BreakerThreshold: 2,
		BreakerBackoff:   time.Second,
	})
	clock := newFakeClock()
	s.cache.breaker.now = clock.now
	inj := faults.New(1)
	inj.ErrorOn("serve/build", nil)
	s.SetInjectionHook(inj.Hook())

	// Two failed builds for a fresh seed reach the threshold. No
	// last-known-good exists for it, so the requests surface the build
	// error itself.
	for i := 0; i < 2; i++ {
		if w := do(t, s, "GET", "/v1/tables/1?seed=55", ""); w.Code != http.StatusInternalServerError {
			t.Fatalf("failed-build request %d: status = %d, want 500 (body %s)", i, w.Code, w.Body)
		}
	}

	// Circuit open: shed with 503 + Retry-After, build never attempted.
	builds := len(inj.Events())
	w := do(t, s, "GET", "/v1/tables/1?seed=55", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("open-circuit status = %d, want 503 (body %s)", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("open-circuit 503 missing Retry-After header")
	}
	if e := decode[api.Error](t, w); e.RetryAfterS < 1 {
		t.Errorf("retry_after_s = %d, want >= 1", e.RetryAfterS)
	}
	if len(inj.Events()) != builds {
		t.Error("open circuit still attempted a build")
	}

	m := metricsSnapshot(t, s)
	if m.Resilience.BreakerOpens != 1 || m.Resilience.Shed503 == 0 {
		t.Errorf("resilience after open = %+v, want breaker_opens=1 and shed_503>0", m.Resilience)
	}

	// Backoff elapsed + builds healed: the probe closes the circuit.
	clock.advance(time.Second)
	inj.Reset()
	if w := do(t, s, "GET", "/v1/tables/1?seed=55", ""); w.Code != http.StatusOK {
		t.Fatalf("post-heal status = %d, want 200 (body %s)", w.Code, w.Body)
	}
	m = metricsSnapshot(t, s)
	if m.Resilience.BreakerProbes != 1 || m.Resilience.BreakerCloses != 1 {
		t.Errorf("resilience after heal = %+v, want breaker_probes=1, breaker_closes=1", m.Resilience)
	}
}

// TestChaosDegradedServesLastGood: with the current study evicted and
// rebuilds failing, reads and extends fall back to the last-known-good
// study, marked by the additive v1 Meta fields.
func TestChaosDegradedServesLastGood(t *testing.T) {
	s := chaosServer(t, Options{Config: testCfg, MaxStudies: 1})
	inj := faults.New(1)
	inj.ErrorOn("serve/build", nil)
	s.SetInjectionHook(inj.Hook())

	// A request for another seed evicts the warm default-seed entry
	// (capacity 1) and then fails to build; no last-known-good exists
	// for it, so it errors outright — and is NOT marked degraded.
	w := do(t, s, "GET", "/v1/tables/1?seed=77", "")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("poisoned new seed: status = %d, want 500 (body %s)", w.Code, w.Body)
	}
	if e := decode[api.Error](t, w); e.Degraded {
		t.Error("hard failure marked degraded")
	}

	// The default seed's entry is gone and its rebuild is poisoned, but
	// its last-known-good study survives eviction: reads degrade to it.
	w = do(t, s, "GET", "/v1/tables/1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("degraded read: status = %d, want 200 (body %s)", w.Code, w.Body)
	}
	tb := decode[api.Table1](t, w)
	if !tb.Degraded || tb.Warning == "" {
		t.Errorf("degraded read meta = degraded=%t warning=%q, want marked", tb.Degraded, tb.Warning)
	}
	if len(tb.Rows) == 0 {
		t.Error("degraded read returned no data")
	}

	// The expensive route degrades through the Get-failure path too.
	w = do(t, s, "POST", "/v1/extend", `{"cell_size_m": 0, "dist_m": 0}`)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded extend: status = %d (body %s)", w.Code, w.Body)
	}
	if ext := decode[api.Extend](t, w); !ext.Degraded || ext.Warning == "" {
		t.Errorf("degraded extend meta = degraded=%t warning=%q", ext.Degraded, ext.Warning)
	}

	if m := metricsSnapshot(t, s); m.Resilience.Degraded == 0 {
		t.Errorf("degraded counter = 0, want > 0")
	}

	// Healed: the rebuild succeeds and responses stop carrying the marker.
	inj.Reset()
	deadline := 0
	for {
		w = do(t, s, "GET", "/v1/tables/1", "")
		if w.Code == http.StatusOK && !decode[api.Table1](t, w).Degraded {
			break
		}
		if deadline++; deadline > 200 {
			t.Fatal("server never recovered from degraded mode")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosSlowBuildDeadlineSheds: a cold build slower than the read
// deadline sheds the waiting request with 503 + Retry-After (there is
// no last-known-good for its seed) instead of hanging, and counts a
// timeout.
func TestChaosSlowBuildDeadlineSheds(t *testing.T) {
	s := chaosServer(t, Options{Config: testCfg, ReadDeadline: 50 * time.Millisecond})
	inj := faults.New(1)
	inj.DelayOn("serve/build", 300*time.Millisecond)
	s.SetInjectionHook(inj.Hook())

	start := now()
	w := do(t, s, "GET", "/v1/overlay/whp?seed=88", "")
	if d := time.Since(start); d > time.Second {
		t.Errorf("deadline-bound request took %v", d)
	}
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("deadline 503 missing Retry-After")
	}
	if m := metricsSnapshot(t, s); m.Resilience.Timeouts == 0 {
		t.Error("timeouts counter = 0, want > 0")
	}

	// The detached build finishes in the background; once it lands the
	// same query is a warm 200.
	for i := 0; ; i++ {
		if w := do(t, s, "GET", "/v1/overlay/whp?seed=88", ""); w.Code == http.StatusOK {
			break
		}
		if i > 200 {
			t.Fatal("background build never landed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSlowlorisConnectionReaped: the hardened http.Server closes a
// client that dribbles (or never sends) its request header instead of
// letting it pin a connection indefinitely.
func TestSlowlorisConnectionReaped(t *testing.T) {
	s := testServer(t)
	hs := NewHTTPServer(s.Handler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.WriteTimeout <= 0 ||
		hs.IdleTimeout <= 0 || hs.MaxHeaderBytes <= 0 {
		t.Fatalf("NewHTTPServer left hardening unset: %+v", hs)
	}
	hs.ReadHeaderTimeout = 100 * time.Millisecond // fast test, same mechanism

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Open a request and stall mid-header, slowloris-style.
	if _, err := io.WriteString(conn, "GET /v1/healthz HTTP/1.1\r\nHost: x\r\nX-Slow:"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		io.Copy(io.Discard, conn) // returns when the server closes us
		close(done)
	}()
	select {
	case <-done:
		// Reaped: the server gave up on the stalled header.
	case <-time.After(3 * time.Second):
		t.Fatal("stalled client still pinned its connection after 3s")
	}

	// The server itself is unharmed.
	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after slowloris = %d", resp.StatusCode)
	}
}

// TestHTTPServerIntegration drives the full middleware stack over a
// real listener: request IDs are echoed, client-supplied IDs win, and
// bodies remain byte-deterministic with IDs confined to headers.
func TestHTTPServerIntegration(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(id string) (*http.Response, string) {
		req, err := http.NewRequest("GET", ts.URL+"/v1/risk/point?lon=-121.5&lat=38.6", nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	r1, b1 := get("")
	if r1.StatusCode != http.StatusOK || r1.Header.Get("X-Request-Id") == "" {
		t.Fatalf("status %d, request id %q", r1.StatusCode, r1.Header.Get("X-Request-Id"))
	}
	r2, b2 := get("client-supplied-7")
	if got := r2.Header.Get("X-Request-Id"); got != "client-supplied-7" {
		t.Errorf("client request id not honored: %q", got)
	}
	if b1 != b2 {
		t.Error("request IDs leaked into response bodies (bytes differ)")
	}
	if strings.Contains(b1, r1.Header.Get("X-Request-Id")) {
		t.Error("response body contains the request id")
	}
}
