package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"time"

	"fivealarms"
	"fivealarms/internal/pipeline"
	"fivealarms/internal/raster"
)

// studyKey identifies one immutable study snapshot: the seed plus a
// hash of every other Config field. Two requests with the same key see
// the same Study pointer.
type studyKey struct {
	seed uint64
	hash uint64
}

// keyOf derives the cache key from a configuration. The hash covers
// every exported Config field except Seed (which keys separately, so
// operators can read it in logs); the unexported build context never
// participates. Shards hashes as its band count, max(Shards, 1), so 0
// and 1 — the same one-band study — share one entry.
func keyOf(cfg fivealarms.Config) studyKey {
	h := fnv.New64a()
	fmt.Fprintf(h, "%g|%d|%d|%d|%q",
		cfg.CellSizeM, cfg.Transceivers, cfg.MappedFiresPerSeason, max(cfg.Shards, 1), cfg.SnapshotPath)
	return studyKey{seed: cfg.Seed, hash: h.Sum64()}
}

// studyEntry is one cached study plus its server-side derived layers.
// ready closes exactly once, after which study/err are immutable.
type studyEntry struct {
	ready chan struct{}
	study *fivealarms.Study
	err   error

	// fireDist memoizes the distance transform of the 2000-2018
	// perimeter union (the nearest-fire-distance layer of /v1/risk/point).
	fireDist pipeline.Cell[*raster.FloatGrid]
}

// FireDist returns the memoized nearest-fire distance grid: the
// distance transform of the study's 2000-2018 perimeter union mask,
// which the point handler reads as well.
func (e *studyEntry) FireDist() *raster.FloatGrid {
	return e.fireDist.Get(func() *raster.FloatGrid {
		return raster.DistanceTransform(e.study.HistoryUnionMask())
	})
}

// readyNow reports whether the entry's build has completed successfully
// (non-blocking).
func (e *studyEntry) readyNow() bool {
	select {
	case <-e.ready:
		return e.err == nil
	default:
		return false
	}
}

// studyCache is a singleflight LRU of built studies keyed by
// (seed, config-hash). Concurrent first requests for a key share one
// build; later requests are cache hits. Builds run on the cache's base
// context (the server's lifetime), not the triggering request's, so a
// canceled request never aborts a build other requests are waiting on
// — the waiter detaches with the request context's error instead.
// Failed builds are evicted so the next request retries, metered by the
// per-key circuit breaker; the last successfully built study per key is
// retained separately (bounded like the LRU) so degraded mode can serve
// stale-but-good data while the current build is broken or in flight.
type studyCache struct {
	baseCtx context.Context
	build   func(ctx context.Context, cfg fivealarms.Config) (*fivealarms.Study, error)
	breaker *buildBreaker

	// inject is the test-only chaos hook (see Server.SetInjectionHook):
	// it runs as pseudo-task "serve/build" before each study build.
	// Written only before traffic; snapshotted under mu at spawn time.
	inject func(task string) error

	mu        sync.Mutex
	max       int
	entries   map[studyKey]*studyEntry
	order     []studyKey // MRU first
	lastGood  map[studyKey]*studyEntry
	goodOrder []studyKey // most recently recorded first
}

// newStudyCache returns a cache holding at most max studies (min 1).
// baseCtx bounds every build's lifetime; bk meters build attempts per
// key; build constructs a study for a validated configuration.
func newStudyCache(baseCtx context.Context, max int, bk *buildBreaker,
	build func(ctx context.Context, cfg fivealarms.Config) (*fivealarms.Study, error)) *studyCache {
	if max < 1 {
		max = 1
	}
	return &studyCache{
		baseCtx:  baseCtx,
		build:    build,
		breaker:  bk,
		max:      max,
		entries:  make(map[studyKey]*studyEntry),
		lastGood: make(map[studyKey]*studyEntry),
	}
}

// Len reports the number of resident entries (including in-flight
// builds).
func (c *studyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Get returns the entry for cfg, building the study on first use.
// Waiting respects ctx: a canceled request returns ctx.Err() while the
// shared build keeps running for the other waiters. When the key's
// circuit breaker is open the build is not even attempted — the caller
// gets a 503-shaped *overloadError with the remaining backoff.
func (c *studyCache) Get(ctx context.Context, cfg fivealarms.Config) (*studyEntry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, err := c.entryFor(cfg)
	if err != nil {
		return nil, err
	}
	select {
	case <-e.ready:
		return e, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// entryFor resolves (or inserts and starts building) the entry for cfg
// without waiting on it. The breaker gate runs only on insertion: an
// already-in-flight build is the breaker's admitted probe.
func (c *studyCache) entryFor(cfg fivealarms.Config) (*studyEntry, error) {
	key := keyOf(cfg)
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		if retry, allowed := c.breaker.Allow(key); !allowed {
			c.mu.Unlock()
			return nil, &overloadError{
				status:     http.StatusServiceUnavailable,
				kind:       shedBreaker,
				retryAfter: retry,
				msg: fmt.Sprintf("study build circuit open for seed %d after repeated failures; retry in %v",
					cfg.Seed, retry.Truncate(time.Millisecond)),
			}
		}
		e = &studyEntry{ready: make(chan struct{})}
		c.entries[key] = e
		c.touchLocked(key)
		c.evictLocked(key)
		go c.run(key, e, cfg, c.inject) //fivealarms:allow(goroleak) builds deliberately outlive the requesting waiter; run closes e.ready on every path and is bounded by the build itself
	} else {
		c.touchLocked(key)
	}
	c.mu.Unlock()
	return e, nil
}

// LastGood returns the most recent successfully built entry for cfg's
// key, or nil. Degraded mode serves from here when the current build is
// broken, gated, or not finished.
func (c *studyCache) LastGood(cfg fivealarms.Config) *studyEntry {
	key := keyOf(cfg)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastGood[key]
}

// ReadyHealthy reports whether cfg's entry exists and holds a completed,
// successful build (non-blocking).
func (c *studyCache) ReadyHealthy(cfg fivealarms.Config) bool {
	key := keyOf(cfg)
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	return e != nil && e.readyNow()
}

// run executes one build and publishes its outcome. A failed build is
// removed from the cache so the key re-arms (mirroring pipeline.Cell's
// failure semantics) and reported to the breaker; a successful build is
// recorded as the key's last-known-good study.
func (c *studyCache) run(key studyKey, e *studyEntry, cfg fivealarms.Config, hook func(string) error) {
	e.study, e.err = c.buildGuarded(cfg, hook)
	c.mu.Lock()
	if e.err != nil {
		if c.entries[key] == e {
			delete(c.entries, key)
			c.dropOrderLocked(key)
		}
	} else {
		c.recordGoodLocked(key, e)
	}
	c.mu.Unlock()
	if e.err != nil {
		c.breaker.OnFailure(key)
	} else {
		c.breaker.OnSuccess(key)
	}
	close(e.ready)
}

// buildGuarded runs the chaos hook (if any) and the build with panic
// containment: a panicking build — injected or real — becomes an error
// outcome instead of crashing the server.
func (c *studyCache) buildGuarded(cfg fivealarms.Config, hook func(string) error) (st *fivealarms.Study, err error) {
	defer func() {
		if v := recover(); v != nil {
			st, err = nil, fmt.Errorf("serve: study build panicked: %v", v)
		}
	}()
	if hook != nil {
		if herr := hook("serve/build"); herr != nil {
			return nil, fmt.Errorf("serve: study build failed: %w", herr)
		}
	}
	return c.build(c.baseCtx, cfg)
}

// recordGoodLocked stores e as key's last-known-good entry, bounding
// the retained set at the cache capacity (oldest recording evicted, so
// degraded mode holds at most max extra studies).
func (c *studyCache) recordGoodLocked(key studyKey, e *studyEntry) {
	if _, ok := c.lastGood[key]; !ok {
		c.goodOrder = append([]studyKey{key}, c.goodOrder...)
	} else {
		for i, k := range c.goodOrder {
			if k == key {
				c.goodOrder = append(c.goodOrder[:i], c.goodOrder[i+1:]...)
				break
			}
		}
		c.goodOrder = append([]studyKey{key}, c.goodOrder...)
	}
	c.lastGood[key] = e
	for len(c.goodOrder) > c.max {
		victim := c.goodOrder[len(c.goodOrder)-1]
		c.goodOrder = c.goodOrder[:len(c.goodOrder)-1]
		delete(c.lastGood, victim)
	}
}

// touchLocked moves key to the MRU position.
func (c *studyCache) touchLocked(key studyKey) {
	c.dropOrderLocked(key)
	c.order = append([]studyKey{key}, c.order...)
}

// dropOrderLocked removes key from the recency list if present.
func (c *studyCache) dropOrderLocked(key studyKey) {
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// evictLocked drops least-recently-used entries beyond the capacity,
// never evicting keep (the entry just inserted). An evicted in-flight
// build still completes and releases its waiters; only the cache slot
// is reclaimed.
func (c *studyCache) evictLocked(keep studyKey) {
	for len(c.order) > c.max {
		victim := c.order[len(c.order)-1]
		if victim == keep {
			return // capacity 1 and the newest entry is the only one
		}
		c.order = c.order[:len(c.order)-1]
		delete(c.entries, victim)
	}
}
