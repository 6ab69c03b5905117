package sched

import (
	"sort"
	"time"
)

// DepthSample is one observation of queue pressure, recorded by the caller
// (galaxy) after each scheduling event so monitors can chart queue depth
// against GPU utilization.
type DepthSample struct {
	At      time.Duration
	Depth   int
	Running int
}

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
	// Depths holds the caller-recorded queue-depth samples.
	Depths []DepthSample
}

// Metrics returns a copy of the scheduler's counters.
func (s *Scheduler) Metrics() Metrics {
	m := s.m
	m.Waits = append([]time.Duration(nil), s.m.Waits...)
	m.Depths = append([]DepthSample(nil), s.m.Depths...)
	return m
}

// RecordDepth appends a queue-depth sample (called by the integration layer
// after each scheduling event).
func (s *Scheduler) RecordDepth(at time.Duration) {
	s.m.Depths = append(s.m.Depths, DepthSample{
		At:      at,
		Depth:   len(s.queue),
		Running: len(s.running),
	})
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
func (m Metrics) MaxDepth() int {
	max := 0
	for _, d := range m.Depths {
		if d.Depth > max {
			max = d.Depth
		}
	}
	return max
}
