package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"fivealarms"
	"fivealarms/internal/rng"
	"fivealarms/internal/serve"
	"fivealarms/internal/serve/api"
)

// Serving shape: the study scale and query mix of cmd/fivealarmsload
// (and so of BENCH_serve.json), four closed-loop clients, and the
// server's default four-study cache. regen regenerates the paper at
// the same scale. The read deadline is raised from its 2 s default so
// that a cold build slowed by a busy host is never shed: shedding is
// not what these workloads measure, and a shed request would fail.
var serveConfig = fivealarms.Config{CellSizeM: 20_000, Transceivers: 60_000, MappedFiresPerSeason: 12}

const (
	clients      = 4
	maxStudies   = 4
	readDeadline = time.Minute
	// warmSeeds studies stay resident through a warm run; warmPool
	// queries over them are answered again and again.
	warmSeeds = 2
	warmPool  = 256
	// churnRecheck is how many of a churn run's first requests are
	// replayed, against rebuilt studies, after the measurement.
	churnRecheck = 3
	// tailSamples is the fewest requests for which p99 has ten samples
	// beyond it.
	tailSamples = 1000
)

// Query classes, weighted like cmd/fivealarmsload: point lookups are
// the hot path, then bbox scans, then whole-table and overlay reads.
const (
	classPoint   = "point"
	classBBox    = "bbox"
	classTables  = "tables"
	classOverlay = "overlay"
)

var queryMix = []string{
	classPoint, classPoint, classPoint, classPoint,
	classBBox, classBBox,
	classTables, classOverlay,
}

// query is one request: its class, the study seed it names, and its
// path with the query string.
type query struct {
	class string
	seed  uint64
	path  string
}

// drawQuery draws one query of the mix against the study for seed.
func drawQuery(src *rng.Source, seed uint64) query {
	switch class := queryMix[src.Intn(len(queryMix))]; class {
	case classPoint:
		return pointQuery(src, seed)
	case classBBox:
		lon, lat := conusLonLat(src)
		d := src.Range(0.5, 3)
		return query{class, seed, fmt.Sprintf("/v1/risk/bbox?seed=%d&min_lon=%.4f&min_lat=%.4f&max_lon=%.4f&max_lat=%.4f",
			seed, lon, lat, lon+d, lat+d/2)}
	case classTables:
		return query{class, seed, fmt.Sprintf("/v1/tables/%d?seed=%d", 1+src.Intn(3), seed)}
	default:
		return query{classOverlay, seed, fmt.Sprintf("/v1/overlay/whp?seed=%d", seed)}
	}
}

// pointQuery draws one point lookup against the study for seed.
func pointQuery(src *rng.Source, seed uint64) query {
	lon, lat := conusLonLat(src)
	return query{classPoint, seed, fmt.Sprintf("/v1/risk/point?seed=%d&lon=%.4f&lat=%.4f", seed, lon, lat)}
}

// conusLonLat draws a coordinate roughly inside CONUS.
func conusLonLat(src *rng.Source) (lon, lat float64) {
	return src.Range(-124, -67), src.Range(25, 49)
}

// liveServer is an in-process fivealarms server on a loopback port.
type liveServer struct {
	base      string
	hs        *http.Server
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	client    *http.Client
	transport *http.Transport
}

// startServer serves a fresh server for cfg on 127.0.0.1.
func startServer(cfg fivealarms.Config) (*liveServer, error) {
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := serve.New(ctx, serve.Options{Config: cfg, MaxStudies: maxStudies, ReadDeadline: readDeadline})
	if err != nil {
		cancel()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	tr := &http.Transport{MaxIdleConns: 2 * clients, MaxIdleConnsPerHost: 2 * clients}
	ls := &liveServer{
		base:      "http://" + ln.Addr().String(),
		hs:        serve.NewHTTPServer(srv.Handler()),
		cancel:    cancel,
		client:    &http.Client{Transport: tr, Timeout: time.Minute},
		transport: tr,
	}
	ls.wg.Add(1)
	go func() {
		defer ls.wg.Done()
		if err := ls.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return ls, nil
}

// stop drains the server, cancels its in-flight builds and waits for
// the serving goroutine.
func (ls *liveServer) stop() {
	ls.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ls.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
	}
	ls.cancel()
	ls.wg.Wait()
}

// get fetches path and returns the status and body.
func (ls *liveServer) get(path string) (int, []byte, error) {
	resp, err := ls.client.Get(ls.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// getOK fetches path and fails unless it answers 200 undegraded.
func (ls *liveServer) getOK(path string) ([]byte, error) {
	status, body, err := ls.get(path)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	if degraded(body) {
		return nil, fmt.Errorf("GET %s: degraded response", path)
	}
	return body, nil
}

// degraded reports whether body is marked as served from a
// last-known-good study.
func degraded(body []byte) bool {
	var m api.Meta
	return json.Unmarshal(body, &m) == nil && m.Degraded
}

// sample is one measured request.
type sample struct {
	q      query
	start  time.Time
	ms     float64
	status int
	err    error
	body   uint64 // fingerprint
	degr   bool
}

// drive runs the clients in a closed loop until the window ends; next
// returns each client's next query. It returns every client's samples.
func (ls *liveServer) drive(window time.Duration, decode bool, next func(client int) query) [][]sample {
	results := make([][]sample, clients)
	var wg sync.WaitGroup
	deadline := now().Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for now().Before(deadline) {
				q := next(c)
				t0 := now()
				status, body, err := ls.get(q.path)
				s := sample{q: q, start: t0, ms: ms(now().Sub(t0)), status: status, err: err, body: fingerprint(body)}
				if decode {
					s.degr = degraded(body)
				}
				results[c] = append(results[c], s)
			}
		}(c)
	}
	wg.Wait()
	return results
}

// tally folds the samples into the outcome: successful latencies,
// failures, the tail ratio, and one span per request.
func tally(out *outcome, tr *tracer, results [][]sample) {
	for _, rs := range results {
		for _, s := range rs {
			tr.record(s.q.class, out.attempted, s.start, s.start.Add(time.Duration(s.ms*1e6)))
			out.attempted++
			if s.err != nil || s.status != http.StatusOK {
				out.failed++
				continue
			}
			out.latMs = append(out.latMs, s.ms)
			if s.degr {
				out.problemf("%s was answered degraded", s.q.path)
			}
		}
	}
	if p50 := median(out.latMs); len(out.latMs) >= tailSamples && p50 > 0 {
		out.layers["tail_ratio"] = quantile(out.latMs, 0.99) / p50
	}
}

// runWarm measures reads against resident studies. Set-up starts a
// server and answers every query of the pool once, recording each
// body; every later answer, from any server, must equal it.
func runWarm(rc runConfig) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	seeds := newSeedSource(rc.seed)
	resident := make([]uint64, warmSeeds)
	for i := range resident {
		resident[i] = seeds.next()
	}
	src := rng.NewStream(rc.seed, 1)
	pool := make([]query, warmPool)
	for i := range pool {
		pool[i] = drawQuery(src, resident[i%warmSeeds])
	}
	cfg := serveConfig
	cfg.Seed = resident[0]

	want := make([]uint64, len(pool))
	var ls *liveServer
	for rep := 0; rep < setupReps; rep++ {
		if ls != nil {
			ls.stop()
		}
		t0 := now()
		var err error
		if ls, err = startServer(cfg); err != nil {
			return nil, err
		}
		for i, q := range pool {
			body, err := ls.getOK(q.path)
			if err != nil {
				ls.stop()
				return nil, fmt.Errorf("set-up: %w", err)
			}
			if fp := fingerprint(body); rep == 0 {
				want[i] = fp
			} else if fp != want[i] {
				out.problemf("set-up server %d answered %s differently", rep, q.path)
			}
		}
		out.setup = append(out.setup, now().Sub(t0))
	}
	defer ls.stop()

	heap, stop := startSampler()
	streams := make([]*rng.Source, clients)
	for c := range streams {
		streams[c] = rng.NewStream(rc.seed, uint64(100+c))
	}
	idx := make([][]int, clients)
	start := readRuntime()
	results := ls.drive(rc.measure, false, func(c int) query {
		i := streams[c].Intn(len(pool))
		idx[c] = append(idx[c], i)
		return pool[i]
	})
	stop()
	out.peakHeap = []float64{mb(heap.peak.Load())}
	tally(out, rc.tr, results)
	perOpSince(start, out.attempted, out.layers)
	for c, rs := range results {
		for k, s := range rs {
			if s.err == nil && s.status == http.StatusOK && s.body != want[idx[c][k]] {
				out.problemf("%s answered differently from its first answer", s.q.path)
			}
		}
	}

	for _, seed := range resident {
		if err := checkAgainstLibrary(out, ls, seed); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runChurn measures point lookups that each name a seed no earlier
// request used, so every one waits for a cold study build, its fire
// history and its perimeter rasters while the cache evicts. Only point
// lookups: they need every lazily built layer, so each request does the
// same work. Set-up starts a server and answers one cold request.
func runChurn(rc runConfig) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	seeds := newSeedSource(rc.seed)
	src := rng.NewStream(rc.seed, 2)
	cfg := serveConfig
	cfg.Seed = seeds.next()

	var ls *liveServer
	for rep := 0; rep < setupReps; rep++ {
		if ls != nil {
			ls.stop()
		}
		t0 := now()
		var err error
		if ls, err = startServer(cfg); err != nil {
			return nil, err
		}
		if _, err := ls.getOK(pointQuery(src, seeds.next()).path); err != nil {
			ls.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setup = append(out.setup, now().Sub(t0))
	}
	defer ls.stop()

	heap, stop := startSampler()
	var mu sync.Mutex // guards seeds and src across the clients
	start := readRuntime()
	results := ls.drive(rc.measure, true, func(int) query {
		mu.Lock()
		defer mu.Unlock()
		return pointQuery(src, seeds.next())
	})
	stop()
	out.peakHeap = []float64{mb(heap.peak.Load())}
	tally(out, rc.tr, results)
	perOpSince(start, out.attempted, out.layers)

	// Replay the first requests of each client: their studies have long
	// been evicted, so each replay rebuilds from scratch and must
	// answer identically.
	var replay []sample
	for _, rs := range results {
		for _, s := range rs {
			if len(replay) < churnRecheck && s.err == nil && s.status == http.StatusOK {
				replay = append(replay, s)
				break
			}
		}
	}
	for _, s := range replay {
		body, err := ls.getOK(s.q.path)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if fingerprint(body) != s.body {
			out.problemf("%s answered differently after a rebuild", s.q.path)
		}
	}
	if len(replay) > 0 {
		if err := checkAgainstLibrary(out, ls, replay[0].q.seed); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkAgainstLibrary builds the study for seed with the library and
// checks that the server's table and overlay bodies are exactly the v1
// encodings of the library's results.
func checkAgainstLibrary(out *outcome, ls *liveServer, seed uint64) error {
	st, err := fivealarms.NewStudyWithOptions(fivealarms.WithConfig(serveConfig), fivealarms.WithSeed(seed))
	if err != nil {
		return fmt.Errorf("library build of seed %d: %w", seed, err)
	}
	for _, c := range []struct {
		path string
		v    any
	}{
		{"/v1/tables/1", api.Table1From(st.Table1())},
		{"/v1/tables/2", api.Table2From(st.Table2())},
		{"/v1/tables/3", api.Table3From(st.Table3())},
		{"/v1/overlay/whp", api.WHPOverlayFrom(st.WHPOverlay())},
	} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(c.v); err != nil {
			return err
		}
		path := fmt.Sprintf("%s?seed=%d", c.path, seed)
		got, err := ls.getOK(path)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want.Bytes()) {
			out.problemf("%s differs from the library's result for seed %d", path, seed)
		}
	}
	return nil
}
