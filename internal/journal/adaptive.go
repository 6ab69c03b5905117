package journal

import "time"

// The adaptive group-commit controller closes the loop between observed
// fsync cost and staging policy. Every fsync feeds two EWMAs — how long the
// disk took, and how many records the batch carried plus those staged behind
// it while the fsync ran — and the flusher consults them before draining:
//
//   - flushDelay: on a disk where fsyncs are expensive, waiting a fraction
//     of one fsync's duration lets more producers stage into the same
//     batch, so the fixed cost amortizes over more records. On a fast disk
//     the delay collapses to zero and the flusher stays eager, keeping ack
//     latency at the floor.
//   - batchTarget: the point of the delay is a bigger batch, so the flusher
//     stops waiting as soon as it has staged modestly more than the recent
//     average — the marginal record is already paid for.
//
// The controller sits under the journal's queue lock: the flusher copies it
// before each drain, and every fsync writes it.
type adaptiveCtl struct {
	fsyncEWMA int64 // nanoseconds
	batchEWMA int64 // records
}

// adaptiveMaxDelay caps the flush deadline so a pathologically slow disk
// degrades ack latency by at most ~one SLA-sized beat, not unboundedly.
const adaptiveMaxDelay = 2 * time.Millisecond

// observe folds one fsync into the EWMAs (alpha = 1/4).
func (c *adaptiveCtl) observe(records int, took time.Duration) {
	c.fsyncEWMA = ewmaStep(c.fsyncEWMA, int64(took))
	c.batchEWMA = ewmaStep(c.batchEWMA, int64(records))
}

func ewmaStep(old, v int64) int64 {
	if old == 0 {
		return v
	}
	return old + (v-old)/4
}

// ewma returns the current fsync-duration estimate.
func (c *adaptiveCtl) ewma() time.Duration {
	return time.Duration(c.fsyncEWMA)
}

// flushDelay is the deadline a flusher waits for more producers before
// draining: half an fsync, capped. The delay self-scales — on a disk whose
// fsync bandwidth is the bottleneck, waiting half an fsync to double the
// batch strictly raises throughput, and on a genuinely fast disk half an
// fsync is negligible ack latency — so no fast-disk cutoff is needed.
func (c *adaptiveCtl) flushDelay() time.Duration {
	d := c.ewma() / 2
	if d > adaptiveMaxDelay {
		d = adaptiveMaxDelay
	}
	return d
}

// paceWorthwhile reports whether waiting for more producers can grow the
// batch at all: when recent batches average a single record there is only
// one producer staging, and any delay is pure ack latency. The EWMA starts
// at zero, so a fresh journal is eager until real batches form.
func (c *adaptiveCtl) paceWorthwhile() bool {
	return c.batchEWMA >= 2
}

// batchTarget is the staged-entry count at which a waiting flusher drains
// early: a bit above the recent batch average, bounded by ring capacity.
func (c *adaptiveCtl) batchTarget(ringCap int) int {
	b := int(c.batchEWMA)
	t := b + b/4 + 1
	if t < 8 {
		t = 8
	}
	if ringCap > 0 && t > ringCap {
		t = ringCap
	}
	return t
}
