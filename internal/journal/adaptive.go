package journal

import "time"

// The adaptive group-commit controller closes the loop between observed
// fsync cost and staging policy. Every fsync feeds two EWMAs — how long the
// disk took, and how many records the batch carried plus those staged behind
// it while the fsync ran — and every wait feeds a third, how many records it
// gathered. The flusher consults them before draining:
//
//   - flushDelay: on a disk where fsyncs are expensive, waiting a fraction
//     of one fsync's duration lets more producers stage into the same
//     batch, so the fixed cost amortizes over more records. On a fast disk
//     the delay collapses to zero and the flusher stays eager, keeping ack
//     latency at the floor.
//   - batchTarget: the point of the delay is a bigger batch, so the flusher
//     stops waiting as soon as it has staged modestly more than the recent
//     average — the marginal record is already paid for.
//   - waitPays: batches of two show that more than one producer stages, not
//     that a wait catches the second: records staged without an ack wait
//     (the engine's start and complete records) make batches too. A
//     flusher whose waits gather next to nothing stays eager, and waits
//     only every waitProbe-th drain to see whether that has changed.
//
// The controller sits under the journal's queue lock: the flusher reads and
// updates it before each drain and after each wait, and every fsync writes
// it.
type adaptiveCtl struct {
	fsyncEWMA int64 // nanoseconds
	batchEWMA int64 // records, in units of 1/batchScale
	gainEWMA  int64 // records a wait gathered, in units of 1/batchScale
	unpaid    int   // drains since the last wait while waits did not pay
}

// batchScale is the record EWMAs' fixed point. In whole records a quarter of
// the step from 1 toward batches of 2 truncates to nothing, so the first
// fsync's batch would decide pacing for the journal's life: a lone first
// record kept two producers eager, a first batch of two kept one producer
// waiting.
const batchScale = 256

// waitProbe is how often a flusher whose waits do not pay waits anyway: every
// waitProbe-th drain that would otherwise wait.
const waitProbe = 8

// adaptiveMaxDelay caps the flush deadline so a pathologically slow disk
// degrades ack latency by at most ~one SLA-sized beat, not unboundedly.
const adaptiveMaxDelay = 2 * time.Millisecond

// observe folds one fsync into the EWMAs (alpha = 1/4).
func (c *adaptiveCtl) observe(records int, took time.Duration) {
	c.fsyncEWMA = ewmaStep(c.fsyncEWMA, int64(took))
	c.batchEWMA = ewmaStep(c.batchEWMA, int64(records)*batchScale)
}

func ewmaStep(old, v int64) int64 {
	if old == 0 {
		return v
	}
	return old + (v-old)/4
}

// observeWait folds one wait's gathered records into the gain EWMA.
func (c *adaptiveCtl) observeWait(gained int) {
	c.gainEWMA = ewmaStep(c.gainEWMA, int64(gained)*batchScale)
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
// one producer staging, and any delay is pure ack latency. Half way to two
// records a batch is where a second producer shows. The EWMA starts at zero,
// so a fresh journal is eager until real batches form.
func (c *adaptiveCtl) paceWorthwhile() bool {
	return c.batchEWMA >= 3*batchScale/2
}

// waitPays reports whether recent waits gathered a quarter of a record or
// more each.
func (c *adaptiveCtl) waitPays() bool {
	return c.gainEWMA >= batchScale/4
}

// shouldWait decides whether the flusher, finding staged records in the
// queue, waits for more before draining. Waiting only pays when a batch can
// actually grow: either recent drains carried multiple records (concurrent
// producers are active), or more than one record is already staged right
// now (the bootstrap — a fresh journal's batch history is empty even under
// heavy concurrency). A lone producer skips the delay entirely, keeping
// single-submitter ack latency at the eager-flush floor, and so does a
// flusher whose waits have not been gathering records, but for a probe.
func (c *adaptiveCtl) shouldWait(staged int) bool {
	if c.flushDelay() <= 0 || staged == 0 {
		return false
	}
	if !c.paceWorthwhile() && staged <= 1 {
		return false
	}
	if c.waitPays() {
		return true
	}
	c.unpaid++
	if c.unpaid < waitProbe {
		return false
	}
	c.unpaid = 0
	return true
}

// batchTarget is the staged-entry count at which a waiting flusher drains
// early: a bit above the recent batch average, bounded by ring capacity.
func (c *adaptiveCtl) batchTarget(ringCap int) int {
	b := int(c.batchEWMA / batchScale)
	t := b + b/4 + 1
	if t < 8 {
		t = 8
	}
	if ringCap > 0 && t > ringCap {
		t = ringCap
	}
	return t
}
