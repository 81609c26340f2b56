// Package serve implements the fivealarms risk-query server: a
// long-running stdlib net/http service exposing an immutable Study as
// a JSON API (the v1 wire contract in internal/serve/api).
//
// Studies are seed-keyed snapshots held in a singleflight LRU —
// concurrent first requests for a (seed, config-hash) share one build,
// later requests are warm cache hits — and every handler honors its
// request context: a canceled request detaches immediately (a
// 499-style abort) while shared builds keep running for the remaining
// waiters. Per-endpoint request/error counts and latency quantiles are
// always on (see Metrics) and served at /v1/metrics.
//
// The serving layer is overload-resilient by construction (DESIGN.md
// "Overload & degradation policy"): every route runs under a panic
// recovery + deadline + admission middleware stack, excess load is shed
// with 429/503 + Retry-After instead of queueing forever, study builds
// sit behind a per-key circuit breaker so a poisoned config cannot
// consume the build budget, and when the current study is unavailable
// the server degrades to the last-known-good one (marked in Meta)
// rather than failing closed.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"fivealarms"
	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
	"fivealarms/internal/serve/api"
)

// StatusClientClosedRequest is the nonstandard (nginx-convention)
// status reported when the client's request context is canceled before
// a response is written.
const StatusClientClosedRequest = 499

// Default resilience parameters, each overridable via Options.
const (
	defaultReadDeadline   = 2 * time.Second
	defaultBuildDeadline  = 30 * time.Second
	defaultMaxInFlight    = 64
	defaultBreakerTrips   = 3
	defaultBreakerBackoff = time.Second
)

// Fixed resilience parameters: the admission weight of expensive
// requests, and the cap on the build breaker's open-circuit backoff.
const (
	buildWeight       = 8
	breakerMaxBackoff = time.Minute
)

// Options configures a Server.
type Options struct {
	// Config is the base study configuration. Requests may override the
	// seed (?seed=N); every other field is fixed at server start.
	Config fivealarms.Config
	// MaxStudies bounds the study LRU (default 4). Each resident study
	// holds its full layer set in memory; degraded mode may retain up
	// to the same number of last-known-good studies alongside.
	MaxStudies int

	// ReadDeadline bounds cheap read handlers — point/bbox lookups,
	// tables, overlay, validate (default 2s). A read that cannot be
	// answered in time is shed (503 + Retry-After) or served degraded,
	// never left hanging.
	ReadDeadline time.Duration
	// BuildDeadline bounds expensive requests: /v1/extend analyses
	// (default 30s).
	BuildDeadline time.Duration

	// MaxInFlight is the admission controller's weight capacity
	// (default 64): cheap reads cost 1, expensive requests cost 8, so
	// cold builds cannot monopolize the server and a burst of reads
	// cannot starve builds.
	MaxInFlight int
	// MaxQueue bounds the admission FIFO wait queue (default
	// 2×MaxInFlight). Arrivals beyond it are shed with 429.
	MaxQueue int

	// BreakerThreshold is the consecutive build failures per (seed,
	// config) key that open the build circuit (default 3).
	BreakerThreshold int
	// BreakerBackoff is the base open-circuit backoff (default 1s);
	// successive opens double it up to one minute, jittered
	// deterministically from the config seed.
	BreakerBackoff time.Duration
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.MaxStudies <= 0 {
		o.MaxStudies = 4
	}
	if o.ReadDeadline <= 0 {
		o.ReadDeadline = defaultReadDeadline
	}
	if o.BuildDeadline <= 0 {
		o.BuildDeadline = defaultBuildDeadline
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = defaultMaxInFlight
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 2 * o.MaxInFlight
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = defaultBreakerTrips
	}
	if o.BreakerBackoff <= 0 {
		o.BreakerBackoff = defaultBreakerBackoff
	}
	return o
}

// endpoint names, as reported by /v1/metrics.
const (
	epHealthz   = "healthz"
	epMetrics   = "metrics"
	epRiskPoint = "risk_point"
	epRiskBBox  = "risk_bbox"
	epTables    = "tables"
	epOverlay   = "overlay_whp"
	epValidate  = "validate"
	epExtend    = "extend"
)

// Server answers risk queries over a cache of immutable studies. Safe
// for concurrent use; construct with New.
type Server struct {
	opts    Options
	cache   *studyCache
	metrics *Metrics
	limiter *limiter
	mux     *http.ServeMux

	// inject is the test-only chaos hook; see SetInjectionHook.
	inject func(task string) error
}

// New builds a Server. baseCtx bounds the lifetime of every study
// build the server starts (cancel it on shutdown to abort in-flight
// builds); opts.Config is validated here so malformed scales fail at
// startup, not on first request.
func New(baseCtx context.Context, opts Options) (*Server, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	metrics := NewMetrics(epHealthz, epMetrics, epRiskPoint, epRiskBBox,
		epTables, epOverlay, epValidate, epExtend)
	bk := newBuildBreaker(opts.BreakerThreshold, opts.BreakerBackoff,
		breakerMaxBackoff, opts.Config.Seed)
	bk.onOpen = metrics.CountBreakerOpen
	bk.onProbe = metrics.CountBreakerProbe
	bk.onClose = metrics.CountBreakerClose
	s := &Server{
		opts: opts,
		cache: newStudyCache(baseCtx, opts.MaxStudies, bk,
			func(ctx context.Context, cfg fivealarms.Config) (*fivealarms.Study, error) {
				return fivealarms.NewStudyWithOptions(
					fivealarms.WithConfig(cfg), fivealarms.WithContext(ctx))
			}),
		metrics: metrics,
		limiter: newLimiter(opts.MaxInFlight, opts.MaxQueue),
		mux:     http.NewServeMux(),
	}
	exempt := routeClass{name: "exempt", deadline: 5 * time.Second}
	read := routeClass{name: "read", deadline: opts.ReadDeadline, weight: 1, fastDegrade: true}
	build := routeClass{name: "build", deadline: opts.BuildDeadline, weight: buildWeight}
	s.route("GET /v1/healthz", epHealthz, exempt, s.handleHealthz)
	s.route("GET /v1/metrics", epMetrics, exempt, s.handleMetrics)
	s.route("GET /v1/risk/point", epRiskPoint, read, s.handleRiskPoint)
	s.route("GET /v1/risk/bbox", epRiskBBox, read, s.handleRiskBBox)
	s.route("GET /v1/tables/{n}", epTables, read, s.handleTables)
	s.route("GET /v1/overlay/whp", epOverlay, read, s.handleOverlayWHP)
	s.route("GET /v1/validate", epValidate, read, s.handleValidate)
	s.route("POST /v1/extend", epExtend, build, s.handleExtend)
	return s, nil
}

// Handler returns the server's root handler (the /v1 route set).
func (s *Server) Handler() http.Handler { return s.mux }

// Warm builds the default-config study ahead of traffic so the first
// request is a cache hit. Honors ctx like any other waiter.
func (s *Server) Warm(ctx context.Context) error {
	_, err := s.cache.Get(ctx, s.opts.Config)
	return err
}

// SetInjectionHook installs a chaos hook that runs immediately before
// each handler body (task "serve/handler/<endpoint>") and each study
// build (task "serve/build"). The hook may return an error, panic, or
// sleep — mirroring pipeline.Graph.SetInjectionHook. Test-only by
// convention: install before serving traffic and never in production.
func (s *Server) SetInjectionHook(hook func(task string) error) {
	s.inject = hook
	s.cache.inject = hook
}

// handlerFunc is the internal handler shape: success writes its own
// response, failure returns an error the middleware maps to a JSON
// error body and metrics.
type handlerFunc func(w http.ResponseWriter, r *http.Request) error

// httpError carries an explicit response status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// badRequest builds a 400 error.
func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// now returns the wall clock for latency measurement and breaker
// backoff. Serving behavior is observational and deliberately outside
// the seed-determinism contract; nothing a study computes ever reads
// this clock.
func now() time.Time {
	return time.Now() //fivealarms:allow(seededrand) serving-layer wall-clock (latency metrics, breaker backoff), never a study input
}

// writeJSON encodes v (indented, trailing newline) and writes it with
// the given status. Encoding happens before headers so a marshal
// failure can still become a 500.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("serve: encoding response: %w", err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, err := w.Write(buf.Bytes())
	return err
}

// degradeInfo travels from study resolution to the response Meta.
type degradeInfo struct {
	degraded bool
	warning  string
}

// apply marks m when the backing study is the last-known-good fallback.
func (d degradeInfo) apply(m *api.Meta) {
	if d.degraded {
		m.Degraded = true
		m.Warning = d.warning
	}
}

// study resolves the request's study entry: the server's base config
// with an optional ?seed=N override, through the singleflight LRU.
//
// Degraded mode (fail-open): when the requested study cannot be served
// in time — its build circuit is open, its build failed, or a cheap
// read would blow its deadline waiting on a cold (re)build — and a
// last-known-good study exists for the same key, that study is served
// instead, marked in the response Meta. Requests whose client has
// already gone away never degrade; they fail with the context error.
func (s *Server) study(r *http.Request) (*studyEntry, degradeInfo, error) {
	cfg := s.opts.Config
	if q := r.URL.Query().Get("seed"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			return nil, degradeInfo{}, badRequest("seed: want an unsigned integer, got %q", q)
		}
		cfg.Seed = v
	}
	rs := stateFrom(r.Context())

	// Predictive degrade for cheap reads: if the study is mid-(re)build
	// the deadline would likely be blown waiting, so serve stale-but-
	// good immediately and let the build proceed in the background.
	if rs != nil && rs.class.fastDegrade && !s.cache.ReadyHealthy(cfg) {
		if lg := s.cache.LastGood(cfg); lg != nil {
			// Keep the rebuild moving (breaker permitting) without
			// waiting on it; a breaker rejection here is fine — the
			// stale study still answers this read.
			s.cache.entryFor(cfg) //fivealarms:allow(errflow) poke only: a breaker rejection is fine, the stale study still answers this read
			return lg, s.degrade("current study is rebuilding; serving last-known-good"), nil
		}
	}

	e, err := s.cache.Get(r.Context(), cfg)
	if err == nil {
		return e, degradeInfo{}, nil
	}
	// Fail open when possible: breaker-open rejections, failed builds,
	// and server-side deadline expiry all fall back to the last-known-
	// good study — but not for clients that already hung up.
	clientGone := rs == nil || rs.clientCtx.Err() != nil
	if !clientGone {
		if lg := s.cache.LastGood(cfg); lg != nil {
			return lg, s.degrade(degradeReason(err)), nil
		}
	}
	return nil, degradeInfo{}, err
}

// degrade counts and describes one degraded response.
func (s *Server) degrade(reason string) degradeInfo {
	s.metrics.CountDegraded()
	return degradeInfo{degraded: true, warning: reason}
}

// degradeReason renders the warning string for a fail-open fallback.
func degradeReason(err error) string {
	var oe *overloadError
	switch {
	case errors.As(err, &oe):
		return "study build circuit open; serving last-known-good"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline waiting for study build; serving last-known-good"
	default:
		return "study build failed; serving last-known-good"
	}
}

// queryFloat parses a required finite float query parameter within
// [lo, hi].
func queryFloat(r *http.Request, name string, lo, hi float64) (float64, error) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return 0, badRequest("missing required parameter %q", name)
	}
	v, err := strconv.ParseFloat(q, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, badRequest("%s: want a finite number, got %q", name, q)
	}
	if v < lo || v > hi {
		return 0, badRequest("%s: %v outside [%v, %v]", name, v, lo, hi)
	}
	return v, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	return writeJSON(w, http.StatusOK, api.Health{
		Meta:          api.NewMeta(),
		Status:        "ok",
		StudiesCached: s.cache.Len(),
		DefaultSeed:   s.opts.Config.Seed,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) error {
	snap := s.metrics.Snapshot()
	snap.Resilience.InFlight = s.limiter.InFlight()
	snap.Resilience.QueueDepth = s.limiter.QueueDepth()
	return writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleRiskPoint(w http.ResponseWriter, r *http.Request) error {
	lon, err := queryFloat(r, "lon", -180, 180)
	if err != nil {
		return err
	}
	lat, err := queryFloat(r, "lat", -90, 90)
	if err != nil {
		return err
	}
	e, deg, err := s.study(r)
	if err != nil {
		return err
	}
	st := e.study
	xy := st.World.ToXY(geom.Point{X: lon, Y: lat})
	cls := st.WHP.ClassAt(xy)
	res := api.PointRisk{
		Meta:             api.NewMeta(),
		Lon:              lon,
		Lat:              lat,
		XM:               xy.X,
		YM:               xy.Y,
		OnConus:          st.World.Contains(xy),
		HazardClass:      cls.String(),
		HazardValue:      st.WHP.HazardAt(xy),
		AtRisk:           cls.AtRisk(),
		NearestFireDistM: -1,
	}
	if si := st.World.StateAt(xy); si >= 0 && si < len(geodata.States) {
		res.State = geodata.States[si].Abbrev
	}
	mask := st.HistoryUnionMask()
	if cx, cy, ok := mask.CellOf(xy); ok {
		res.InHistoricalPerimeter = mask.Get(cx, cy)
	}
	if v, ok := e.FireDist().Sample(xy); ok && !math.IsInf(v, 1) {
		res.NearestFireDistM = v
	}
	deg.apply(&res.Meta)
	return writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleRiskBBox(w http.ResponseWriter, r *http.Request) error {
	minLon, err := queryFloat(r, "min_lon", -180, 180)
	if err != nil {
		return err
	}
	minLat, err := queryFloat(r, "min_lat", -90, 90)
	if err != nil {
		return err
	}
	maxLon, err := queryFloat(r, "max_lon", -180, 180)
	if err != nil {
		return err
	}
	maxLat, err := queryFloat(r, "max_lat", -90, 90)
	if err != nil {
		return err
	}
	if minLon > maxLon || minLat > maxLat {
		return badRequest("empty box: want min_lon <= max_lon and min_lat <= max_lat")
	}
	e, deg, err := s.study(r)
	if err != nil {
		return err
	}
	st := e.study
	// The lon/lat box maps to a non-rectangular region under Albers;
	// evaluate the bounding box of the four projected corners (the
	// documented v1 semantics).
	box := geom.EmptyBBox()
	for _, ll := range []geom.Point{
		{X: minLon, Y: minLat}, {X: minLon, Y: maxLat},
		{X: maxLon, Y: minLat}, {X: maxLon, Y: maxLat},
	} {
		xy := st.World.ToXY(ll)
		box = box.ExtendPoint(xy)
	}
	res := api.BBoxRisk{
		Meta:    api.NewMeta(),
		MinLon:  minLon,
		MinLat:  minLat,
		MaxLon:  maxLon,
		MaxLat:  maxLat,
		ByClass: map[string]int{},
	}
	mask := st.HistoryUnionMask()
	for _, ti := range st.Data.Index.Query(box, nil) {
		t := &st.Data.T[ti]
		cls := st.Analyzer.Class(ti)
		res.Transceivers++
		res.ByClass[cls.String()]++
		if cls.AtRisk() {
			res.AtRisk++
		}
		if cx, cy, ok := mask.CellOf(t.XY); ok && mask.Get(cx, cy) {
			res.InHistoricalPerimeter++
		}
	}
	deg.apply(&res.Meta)
	return writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) error {
	e, deg, err := s.study(r)
	if err != nil {
		return err
	}
	st := e.study
	switch r.PathValue("n") {
	case "1":
		res := api.Table1From(st.Table1())
		deg.apply(&res.Meta)
		return writeJSON(w, http.StatusOK, res)
	case "2":
		res := api.Table2From(st.Table2())
		deg.apply(&res.Meta)
		return writeJSON(w, http.StatusOK, res)
	case "3":
		res := api.Table3From(st.Table3())
		deg.apply(&res.Meta)
		return writeJSON(w, http.StatusOK, res)
	}
	return &httpError{status: http.StatusNotFound,
		msg: fmt.Sprintf("unknown table %q: want 1, 2 or 3", r.PathValue("n"))}
}

func (s *Server) handleOverlayWHP(w http.ResponseWriter, r *http.Request) error {
	e, deg, err := s.study(r)
	if err != nil {
		return err
	}
	res := api.WHPOverlayFrom(e.study.WHPOverlay())
	deg.apply(&res.Meta)
	return writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) error {
	e, deg, err := s.study(r)
	if err != nil {
		return err
	}
	res := api.ValidationFrom(e.study.Validate())
	deg.apply(&res.Meta)
	return writeJSON(w, http.StatusOK, res)
}

// extendRequest is the POST /v1/extend body: fivealarms.ExtendOptions
// with explicit v1 field names.
type extendRequest struct {
	CellSizeM float64 `json:"cell_size_m"`
	DistM     float64 `json:"dist_m"`
}

// Request bounds for /v1/extend. The floor is the library's own
// national-raster minimum. The fine path evaluates the WHP only at the
// window transceivers' cells and the buffer's disk around them, so its
// cost follows the disk's area, which the distance cap bounds. On a
// 20 km / 60k-transceiver study (2-vCPU host, GOMAXPROCS=2), the fine
// path at the 100 m floor with the default half mile took 38 ms and
// allocated 24 MB; at the floor and the 100 km cap it took 6.8 s and
// 23 MB. No context reaches the analysis, so a running request cannot
// be cancelled.
const (
	minExtendCellM = 100
	maxExtendDistM = 100_000
)

func (s *Server) handleExtend(w http.ResponseWriter, r *http.Request) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	var req extendRequest
	if err := dec.Decode(&req); err != nil {
		return badRequest("body: %v", err)
	}
	if math.IsNaN(req.CellSizeM) || math.IsInf(req.CellSizeM, 0) ||
		math.IsNaN(req.DistM) || math.IsInf(req.DistM, 0) {
		return badRequest("cell_size_m and dist_m must be finite")
	}
	if req.CellSizeM < 0 || (req.CellSizeM > 0 && req.CellSizeM < minExtendCellM) {
		return badRequest("cell_size_m: want 0 (coarse path) or >= %d, got %v", minExtendCellM, req.CellSizeM)
	}
	if req.DistM < 0 || req.DistM > maxExtendDistM {
		return badRequest("dist_m: want 0 (paper default) .. %d, got %v", maxExtendDistM, req.DistM)
	}
	e, deg, err := s.study(r)
	if err != nil {
		return err
	}
	rep := e.study.ExtendWith(fivealarms.ExtendOptions{CellSizeM: req.CellSizeM, DistM: req.DistM})
	res := api.ExtendFrom(rep)
	deg.apply(&res.Meta)
	return writeJSON(w, http.StatusOK, res)
}
