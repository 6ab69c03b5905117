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
//
// mu is held across a miss's round trip, so an Invalidate can never land
// between a survey and its install. Every caller already holds the engine
// lock, so the mutex is never contended.
type Cache struct {
	mu    sync.Mutex
	at    time.Duration
	valid bool
	usage Usage

	hits, misses, invalidations int

	// observeMiss, when set, receives the wall-clock cost of each miss's
	// round trip.
	observeMiss func(time.Duration)
}

// NewCache builds a survey cache. observeMiss, if not nil, is told how long
// each miss's Query+UsageFromXML round trip took on the wall clock; it runs
// on the surveying goroutine after the cache is unlocked.
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
	began := time.Now()
	doc, err := Query(cluster, now)
	var u Usage
	if err == nil {
		u, err = UsageFromXML(doc)
	}
	if err == nil {
		c.misses++
		c.at, c.usage, c.valid = now, u, true
	}
	took := time.Since(began)
	c.mu.Unlock()
	if err != nil {
		return Usage{}, err
	}
	if c.observeMiss != nil {
		c.observeMiss(took)
	}
	return u, nil
}

// Invalidate drops the cached survey. Call after any device-state mutation
// (session open/close/abort) so later same-instant surveys re-query.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	c.valid = false
	c.invalidations++
	c.mu.Unlock()
}

// Stats returns the cache's hit, miss and invalidation counts.
func (c *Cache) Stats() (hits, misses, invalidations int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.invalidations
}
