package sched

import (
	"sort"
	"time"
)

// Metrics accumulates scheduler counters across a run. All waits are queue
// waits: submission to start.
type Metrics struct {
	// Submitted counts requests accepted into the queue.
	Submitted int
	// Started counts Start decisions issued.
	Started int
	// Backfilled counts starts that slid past a blocked head-of-line job.
	Backfilled int
	// Rejected counts impossible requests (gang larger than the cluster).
	Rejected int
	// GateDenied counts starts vetoed by the start gate (injected
	// gang-start faults).
	GateDenied int
	// Waits holds each started job's queue wait, in start order.
	Waits []time.Duration
	// maxDepth is the deepest queue the caller recorded.
	maxDepth int
}

// Metrics returns a copy of the scheduler's counters.
func (s *Scheduler) Metrics() Metrics {
	m := s.m
	m.Waits = append([]time.Duration(nil), s.m.Waits...)
	return m
}

// RecordDepth folds the current queue depth into the running maximum
// (called by the integration layer after each scheduling event). The
// instant is not kept: MaxDepth is the only reading.
func (s *Scheduler) RecordDepth(time.Duration) {
	if d := len(s.byID); d > s.m.maxDepth {
		s.m.maxDepth = d
	}
}

// MeanWait returns the mean queue wait of started jobs (zero when none).
func (m Metrics) MeanWait() time.Duration {
	if len(m.Waits) == 0 {
		return 0
	}
	var sum time.Duration
	for _, w := range m.Waits {
		sum += w
	}
	return sum / time.Duration(len(m.Waits))
}

// P99Wait returns the 99th-percentile queue wait (nearest-rank method;
// zero when no job has started).
func (m Metrics) P99Wait() time.Duration { return m.PercentileWait(0.99) }

// PercentileWait returns the p-quantile queue wait for p in (0, 1].
func (m Metrics) PercentileWait(p float64) time.Duration {
	if len(m.Waits) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), m.Waits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(float64(len(sorted))*p+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// MaxDepth returns the deepest recorded queue.
func (m Metrics) MaxDepth() int { return m.maxDepth }
