package smi

import (
	"sync"
	"time"

	"gyan/internal/gpu"
)

// Cache deduplicates survey round trips. Every mapping decision runs the
// full nvidia-smi pipeline — render the `-q -x` XML report, parse it back,
// fold it into a Usage — and a burst of decisions landing at the same
// virtual instant sees identical device state. The cache keeps the
// last parsed Usage and serves it to surveys taken at exactly the same
// virtual instant, which cannot change any placement decision — device state
// is a function of virtual time, and the owner invalidates the cache
// whenever device state changes (sessions opened, closed, aborted), so a hit
// can never observe a stale allocation.
type Cache struct {
	mu    sync.Mutex
	at    time.Duration
	valid bool
	usage Usage

	// gen counts invalidations. A miss snapshots it before releasing the
	// lock for the Query/UsageFromXML round trip and only installs its
	// result if no Invalidate landed in between — otherwise the survey was
	// taken against pre-mutation device state and caching it as valid
	// would serve exactly the staleness the contract rules out.
	gen uint64

	hits, misses, invalidations int

	// observeMiss, when set, receives the wall-clock cost of each miss's
	// round trip.
	observeMiss func(time.Duration)

	// testHookAfterParse, when set, runs between the unlocked parse and the
	// re-lock that installs the result — the window the generation counter
	// protects. Tests use it to interleave an Invalidate deterministically.
	testHookAfterParse func()
}

// NewCache builds a survey cache. observeMiss, if not nil, is told how long
// each miss's Query+UsageFromXML round trip took on the wall clock; it runs
// on the surveying goroutine and must not call back into the cache.
func NewCache(observeMiss func(time.Duration)) *Cache {
	return &Cache{observeMiss: observeMiss}
}

// Usage returns the cluster's usage survey at now, serving a cached parse
// when one taken at now is still valid. A miss pays the Query+UsageFromXML
// round trip — tens of microseconds for a two-GPU node with the hand-written
// codec in xml.go, so the cache is a saving on same-instant bursts and not
// what keeps a dispatch affordable.
func (c *Cache) Usage(cluster *gpu.Cluster, now time.Duration) (Usage, error) {
	c.mu.Lock()
	if c.valid && now == c.at {
		c.hits++
		u := c.usage
		c.mu.Unlock()
		return u, nil
	}
	gen := c.gen
	hook := c.testHookAfterParse
	c.mu.Unlock()

	began := time.Now()
	doc, err := Query(cluster, now)
	if err != nil {
		return Usage{}, err
	}
	u, err := UsageFromXML(doc)
	if err != nil {
		return Usage{}, err
	}
	if c.observeMiss != nil {
		c.observeMiss(time.Since(began))
	}
	if hook != nil {
		hook()
	}

	c.mu.Lock()
	c.misses++
	// Keep the newest survey: a concurrent miss at a later instant wins.
	// Never install across an invalidation: the parse ran unlocked, so an
	// Invalidate in that window means this survey predates a device-state
	// mutation and must not be served to anyone else.
	if c.gen == gen && (!c.valid || now >= c.at) {
		c.at = now
		c.usage = u
		c.valid = true
	}
	c.mu.Unlock()
	return u, nil
}

// Invalidate drops the cached survey. Call after any device-state mutation
// (session open/close/abort) so later same-instant surveys re-query. It
// also bars any in-flight miss from installing its pre-mutation result.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	c.valid = false
	c.gen++
	c.invalidations++
	c.mu.Unlock()
}

// Stats returns the cache's hit, miss and invalidation counts.
func (c *Cache) Stats() (hits, misses, invalidations int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.invalidations
}
