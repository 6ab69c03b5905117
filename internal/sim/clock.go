// Package sim provides the deterministic simulation substrate used by the
// rest of the repository: a virtual clock, a discrete-event scheduler and a
// reproducible random number source.
//
// Every duration reported by the GPU simulator, the container runtime and the
// tool backends is virtual time drawn from a Clock, never wall time. This is
// what makes each figure of the paper reproducible bit-for-bit on any
// machine: two runs with the same seed observe exactly the same "seconds".
package sim

import (
	"sync"
	"time"
)

// Clock is a virtual clock. The zero value is ready to use and starts at
// virtual time zero. Clock is safe for concurrent use.
//
// A Clock only moves forward when AdvanceTo is called; it never tracks wall
// time. The event engine moves it to each event's instant.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// NewClock returns a clock positioned at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time as an offset from the simulation
// epoch.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AdvanceTo moves the clock forward to t if t is later than the current
// virtual time, and reports the resulting time. Moving to a past instant is a
// no-op, which makes AdvanceTo convenient for merging timelines produced by
// concurrent workers.
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}
