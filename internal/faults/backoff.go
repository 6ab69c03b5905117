package faults

import (
	"time"

	"gyan/internal/sim"
)

// Backoff is the retry policy for transient dispatch failures: bounded
// attempts with jittered delays that double per retry. The zero value
// disables retries (MaxAttempts 0 allows a single attempt and nothing more).
type Backoff struct {
	// MaxAttempts is the total number of execution attempts a job may
	// consume, including the first. Values below 1 mean 1 (no retries).
	MaxAttempts int
	// Base is the delay before the first retry; zero defaults to 500ms.
	Base time.Duration
	// Max caps the grown delay; zero defaults to 30s.
	Max time.Duration
	// Jitter is the fraction of the delay randomized (0 to 1). A delay d
	// becomes d * (1 - Jitter/2 + Jitter*u) for a uniform u, so the mean is
	// preserved. Zero means no jitter.
	Jitter float64
}

// Attempts returns the effective attempt budget.
func (b Backoff) Attempts() int {
	if b.MaxAttempts < 1 {
		return 1
	}
	return b.MaxAttempts
}

// Delay returns the wait before retry number `retry` (1-based: the delay
// after the first failure is Delay(1)). The rng supplies the jitter draw;
// nil disables jitter.
func (b Backoff) Delay(retry int, rng *sim.RNG) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 500 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 30 * time.Second
	}
	d := float64(base)
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= float64(max) {
			d = float64(max)
			break
		}
	}
	if d > float64(max) {
		d = float64(max)
	}
	if b.Jitter > 0 && rng != nil {
		j := b.Jitter
		if j > 1 {
			j = 1
		}
		d *= 1 - j/2 + j*rng.Float64()
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}
