package journal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The write pipeline is the only code that writes a segment: queue → flusher
// → write → one fsync → watermark. Append never touches a file. The record is
// ticketed and encoded into the journal's one bounded staging queue, and the
// flusher goroutine drains the queue, writes the whole batch in one pass and
// issues a single fsync for it.
//
// Ordering: every staged entry takes its ticket while holding the queue
// lock, and the flusher takes the whole queue under that lock, so the
// segment files are strictly in ticket order. A torn tail (a file-suffix
// loss) therefore loses only a ticket suffix — which is what Replay's
// last-record-wins folding and the crash-recovery audits rely on — and the
// commit watermark never passes a staged ticket, because the watermark scan
// reads the queue under the same lock that issued it.
//
// Durability: the queue is in ticket order, so the fsync of a batch moves
// the commit watermark past every ticket in it. Append stages a submit or
// ownership record and then always waits on the watermark (AwaitDurable), so
// N concurrent submitters share one fsync. AppendAsync skips the wait and
// hands the ticket back instead, for a caller that waits later — the engine
// stages a submit under its lock and waits after releasing it.
//
// Crash semantics: records staged but not yet flushed are exactly what a
// killed process loses, and watermark waiters parked on them are unblocked
// with errCrashed (in a real crash the process dies and nobody is
// acknowledged).

// defaultStageCap bounds the staged-entry count. A full queue blocks its
// producers (backpressure) until the flusher drains it, so a stalled disk
// surfaces as slow appends rather than unbounded memory.
const defaultStageCap = 8 * 1024

// errCrashed unblocks watermark waiters whose batch was dropped by Crash.
var errCrashed = errors.New("journal: crashed before the staged record reached disk")

// gcEntry is one staged record.
type gcEntry struct {
	tick uint64
	buf  []byte
}

// stage tickets, encodes and parks one record in the queue, returning its
// ticket as soon as it is staged.
func (j *Journal) stage(rec Record) (uint64, error) {
	j.stageMu.Lock()
	for len(j.staged) >= j.stageCap && j.terminalErr() == nil {
		j.notFull.Wait()
	}
	if err := j.terminalErr(); err != nil {
		j.stageMu.Unlock()
		return 0, err
	}
	// The ticket is taken — and the record encoded with it — under the
	// queue lock: staging order equals ticket order, and the watermark scan
	// takes the same lock, so it never sees the ticket counter ahead of the
	// staged entry.
	rec.Tick = j.tick.Add(1)
	buf, err := encodePooled(rec)
	if err != nil {
		j.stageMu.Unlock()
		return 0, err
	}
	j.staged = append(j.staged, gcEntry{tick: rec.Tick, buf: buf})
	queued := j.queued.Add(1)
	j.stageMu.Unlock()

	// Kick only on the empty→non-empty transition: during a burst the
	// flusher is already awake (pacing or draining), and waking it per
	// record is a futex round-trip per append on the hot path. A record
	// staged mid-drain that this misses is caught by the flusher's own
	// post-drain recheck in run.
	if queued == 1 {
		j.wake()
	}
	return rec.Tick, nil
}

func (j *Journal) wake() {
	select {
	case j.kick <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// run is the flusher goroutine: drain on every kick, final drain of the
// staged tail once the journal leaves the open state.
func (j *Journal) run() {
	defer close(j.exit)
	for {
		select {
		case <-j.kick:
			j.pace()
			if !j.flushGated() {
				return
			}
			// Producers only kick on the empty→non-empty transition, so an
			// entry staged after the drain swept the queue may carry no
			// pending wake-up — recheck and self-kick rather than sleep on
			// staged work.
			if j.queued.Load() > 0 {
				j.wake()
			}
		case <-j.quit:
			j.Sync()
			return
		}
	}
}

// flushGated is the flusher-goroutine drain: it honors the test-only hold
// gate, parking before the drain while a hold is installed. The gate is
// read under flushMu and the drain runs without releasing it, which —
// paired with HoldFlush taking flushMu — closes the straddle race: a drain
// that saw no gate cannot sweep records staged after a hold was installed.
// Returns false when quit was observed while parked (the flusher must exit).
func (j *Journal) flushGated() bool {
	j.flushMu.Lock()
	gate := j.holdGate()
	if gate == nil {
		j.flushLocked()
		j.flushMu.Unlock()
		return true
	}
	j.flushMu.Unlock()
	select {
	case <-gate:
		j.Sync()
		return true
	case <-j.quit:
		// Same as run's quit branch: one final drain. After a crash the
		// queue is already empty (Crash drops it under flushMu before
		// closing quit); after a close it is the staged tail.
		j.Sync()
		return false
	}
}

// pace is the adaptive flush deadline: wait for the burst of concurrent
// producers to finish staging before paying the fsync, so the whole burst
// shares one. Three exits — the batch target filled, the arrivals went
// quiet (a sync-ack producer blocks until the drain, so once staging stops
// no further wait can grow the batch), or the deadline (half an fsync)
// expired.
func (j *Journal) pace() {
	ctl := &j.ctl
	d := ctl.flushDelay()
	if d <= 0 {
		return
	}
	// Waiting only pays when a batch can actually grow: either recent
	// drains carried multiple records (concurrent producers are active), or
	// more than one record is already staged right now (the bootstrap — a
	// fresh journal's batch history is empty even under heavy concurrency).
	// A lone producer skips the delay entirely, keeping single-submitter
	// ack latency at the eager-flush floor.
	last := int(j.queued.Load())
	if !ctl.paceWorthwhile() && last <= 1 {
		return
	}
	// Kicks coalesce (the channel holds one token), so everything may
	// already be staged by the time the flusher wakes: check the target
	// before the gather loop, not only inside it.
	target := ctl.batchTarget(j.stageCap)
	if last == 0 || last >= target {
		return
	}
	// Gather by polling, not timers: the quiet window is tens of
	// microseconds and OS timer granularity would stretch it to ~100µs+,
	// which at batch sizes of 2-8 costs more than the fsync it saves. The
	// flusher is a dedicated goroutine, the spin is bounded by the
	// deadline, and Gosched keeps producers running on a busy box.
	const quiet = 15 * time.Microsecond
	start := time.Now()
	lastGrow := start
	for {
		select {
		case <-j.quit:
			return
		default:
		}
		runtime.Gosched()
		n := int(j.queued.Load())
		if n >= target {
			return
		}
		now := time.Now()
		if n > last {
			last, lastGrow = n, now
			continue
		}
		// No growth for a quiet beat: the burst is fully staged and every
		// producer in it is parked waiting on this flush — more waiting
		// cannot grow the batch.
		if now.Sub(lastGrow) >= quiet || now.Sub(start) >= d {
			return
		}
	}
}

// minPending returns the lowest not-yet-durable ticket (0: none). The queue
// is read before the in-flight marker because state only moves forward
// along that chain, and take publishes the marker in the same critical
// section that empties the queue — so a ticket is visible in one of the two
// until its fsync returns. The queue is in ticket order, so its head is its
// minimum.
func (j *Journal) minPending() uint64 {
	min := uint64(0)
	j.stageMu.Lock()
	if len(j.staged) > 0 {
		min = j.staged[0].tick
	}
	j.stageMu.Unlock()
	if m := j.inflightMin.Load(); m != 0 && (min == 0 || m < min) {
		min = m
	}
	return min
}

// take empties the queue and returns it, in ticket order, waking blocked
// producers. The batch's lowest ticket is published as inflightMin before
// the lock is released, keeping every ticket visible to the watermark scan.
func (j *Journal) take() []gcEntry {
	j.stageMu.Lock()
	defer j.stageMu.Unlock()
	out := j.staged
	if len(out) == 0 {
		return nil
	}
	j.inflightMin.Store(out[0].tick)
	j.staged = nil
	j.queued.Add(-int64(len(out)))
	j.notFull.Broadcast()
	return out
}

// Sync drains the queue and writes the batch with one trailing fsync,
// forcing every staged record to stable storage.
func (j *Journal) Sync() error {
	j.flushMu.Lock()
	defer j.flushMu.Unlock()
	return j.flushLocked()
}

// flushLocked is Sync with flushMu already held. Its outcome reaches the
// batch's waiters through the watermark: a success advances it past the
// batch, a failure fails every waiter.
func (j *Journal) flushLocked() error {
	batch := j.take()
	if len(batch) == 0 {
		return nil
	}
	err := j.writeBatch(batch)
	if err != nil {
		// The batch is already drained from the queue, so its tickets can
		// never reach disk through a later flush. Latch the journal failed —
		// reject further appends, fail parked AwaitDurable callers — and
		// leave inflightMin set so the watermark can never pass the lost
		// tickets after an I/O error such as ENOSPC.
		j.fail(err)
		j.failWaiters(err)
	} else {
		j.inflightMin.Store(0)
		j.advanceWatermark()
	}
	return err
}

// writeBatch appends a drained batch under the segment lock: every record
// is written (rotating segments as needed), then a single fsync covers the
// whole batch. Always fsyncing the batch — not only when it carries
// durable-class records — is what the commit watermark leans on: once a
// flush cycle completes, every ticket it drained is durable and the
// watermark may pass it, so watermark waiters converge instead of hanging
// behind a non-durable record parked in the OS cache. The cost stays
// amortized: one fsync per drain, shared by however many producers staged
// into it.
func (j *Journal) writeBatch(batch []gcEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errClosed
	}
	for _, e := range batch {
		if err := j.writeEncodedLocked(e.buf); err != nil {
			return err
		}
		recycleFrame(e.buf)
	}
	return j.syncLocked()
}

// writeEncodedLocked writes one already-encoded record with j.mu held:
// segment rotation, buffered write and counter updates, no fsync decision.
func (j *Journal) writeEncodedLocked(buf []byte) error {
	if j.size > 0 && j.size+int64(len(buf)) > j.opts.segmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := j.w.Write(buf); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(buf))
	j.stats.Appends++
	j.stats.Bytes += int64(len(buf))
	j.pending++
	return nil
}

// openSegment starts a fresh segment with j.mu held (or before the journal
// is shared). A file's fsync does not persist its directory entry (fsync(2)),
// so the segment directory is synced once here: a record acked in a
// brand-new segment is otherwise not safe.
func (j *Journal) openSegment(seq int) error {
	f, err := os.OpenFile(filepath.Join(j.segDir, segName(seq)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	if err := syncDir(j.segDir); err != nil {
		f.Close()
		return err
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	j.seq = seq
	j.size = 0
	return nil
}

// rotateLocked seals the current segment and opens the next one.
func (j *Journal) rotateLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: close segment: %w", err)
	}
	j.stats.Rotations++
	return j.openSegment(j.seq + 1)
}

// syncLocked flushes the buffer and fsyncs the current segment, feeding the
// adaptive controller and the fsync observer with the batch it covered.
// The callback runs with j.mu held and must not call back into the journal.
func (j *Journal) syncLocked() error {
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	batch := j.pending
	t0 := time.Now()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	took := time.Since(t0)
	j.stats.Syncs++
	j.pending = 0
	if batch > 0 {
		// The controller learns the batch together with what was staged
		// behind it during the fsync. Two producers taking turns flush one
		// record each — the one staged during the fsync before — so the
		// batch alone would never show the second producer, and the flusher
		// would never wait for it.
		j.ctl.observe(batch+int(j.queued.Load()), took)
		j.obsMu.Lock()
		onSync := j.onSync
		j.obsMu.Unlock()
		if onSync != nil {
			onSync(batch, took)
		}
	}
	return nil
}
