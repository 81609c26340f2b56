package fixture

import "sync"

// Cache embeds its guard by value, so Cache values must never be
// copied.
type Cache struct {
	mu   sync.Mutex
	hits int
}

// prep is a memo's shape: a Once guarding a build.
type prep struct {
	once sync.Once
	v    int
}

// Snapshot copies the cache four ways: assignment, dereference,
// call-by-value parameter, and range.
func Snapshot(c *Cache, all []Cache, use func(Cache) int) int {
	dup := *c
	n := use(dup)
	for _, e := range all {
		n += e.hits
	}
	return n
}

// rearm copies a prep, silently re-arming its Once.
func rearm(p *prep) prep {
	q := *p
	return q
}

// job mirrors the raster kernel-pool dispatch shape: a band task with
// its completion WaitGroup embedded by value.
type job struct {
	wg   sync.WaitGroup
	band int
}

// dispatch sends a job by value into the pool's channel, forking its
// WaitGroup: Done on the worker's copy never releases this Wait.
func dispatch(ch chan job, j *job) {
	ch <- *j
	j.wg.Wait()
}
