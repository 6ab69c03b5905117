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
// Ordering: every staged entry takes its ticket under the queue lock mu,
// and a drain takes the whole queue under mu while holding the file lock
// fileMu (see Journal), so the segment files are strictly in ticket order.
// A torn tail (a file-suffix loss) therefore loses only a ticket suffix —
// which is what Replay's last-record-wins folding and the crash-recovery
// audits rely on — and the commit watermark never passes a staged ticket,
// because it is computed under the lock that issued it.
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

func (j *Journal) wake() {
	select {
	case j.kick <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// queued returns the staging queue's length.
func (j *Journal) queued() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.staged)
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
			if j.queued() > 0 {
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
// read under fileMu and the drain runs without releasing it, which —
// paired with HoldFlush taking fileMu — closes the straddle race: a drain
// that saw no gate cannot sweep records staged after a hold was installed.
// Returns false when quit was observed while parked (the flusher must exit).
func (j *Journal) flushGated() bool {
	j.fileMu.Lock()
	gate := j.hold
	if gate == nil {
		j.flushBatch(j.take(), 0)
		j.fileMu.Unlock()
		return true
	}
	j.fileMu.Unlock()
	select {
	case <-gate:
		j.Sync()
		return true
	case <-j.quit:
		// Same as run's quit branch: one final drain. After a crash the
		// queue is already empty (Crash drops it under fileMu before
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
// expired. What a wait gathered goes back to the controller.
func (j *Journal) pace() {
	j.mu.Lock()
	last := len(j.staged)
	// Kicks coalesce (the channel holds one token), so everything may
	// already be staged by the time the flusher wakes: check the target
	// before the gather loop, not only inside it.
	target := j.ctl.batchTarget(j.stageCap)
	wait := last < target && j.ctl.shouldWait(last)
	d := j.ctl.flushDelay()
	j.mu.Unlock()
	if !wait {
		return
	}
	first := last
	defer func() {
		j.mu.Lock()
		j.ctl.observeWait(last - first)
		j.mu.Unlock()
	}()
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
		n := j.queued()
		if n >= target {
			last = n
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

// take empties the queue and returns it, in ticket order; see takeLocked.
func (j *Journal) take() []gcEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.takeLocked()
}

// takeLocked empties the queue with mu held and returns it, waking blocked
// producers. The batch's lowest ticket becomes the in-flight marker in the
// same critical section, keeping every ticket visible to the watermark until
// its fsync.
func (j *Journal) takeLocked() []gcEntry {
	out := j.staged
	if len(out) == 0 {
		return nil
	}
	j.inflightMin = out[0].tick
	j.staged = nil
	j.notFull.Broadcast()
	return out
}

// Sync drains the queue and writes the batch with one trailing fsync,
// forcing every staged record to stable storage.
func (j *Journal) Sync() error {
	j.fileMu.Lock()
	defer j.fileMu.Unlock()
	return j.flushBatch(j.take(), 0)
}

// flushBatch writes a drained batch with fileMu held and hands its outcome
// to the batch's waiters through the watermark: a success moves the
// in-flight marker to next (0: none) and advances the watermark past the
// batch, a failure fails every waiter.
func (j *Journal) flushBatch(batch []gcEntry, next uint64) error {
	if len(batch) == 0 {
		return nil
	}
	if err := j.writeBatch(batch); err != nil {
		// The batch is already drained from the queue, so its tickets can
		// never reach disk through a later flush. Latch the journal failed —
		// reject further appends, fail parked AwaitDurable callers — and
		// leave the in-flight marker set so the watermark can never pass the
		// lost tickets after an I/O error such as ENOSPC.
		j.fail(err)
		j.failWaiters(err)
		return err
	}
	j.settle(next)
	return nil
}

// writeBatch appends a drained batch with fileMu held: every record is
// written (rotating segments as needed), then a single fsync covers the
// whole batch. Always fsyncing the batch — not only when it carries
// durable-class records — is what the commit watermark leans on: once a
// flush cycle completes, every ticket it drained is durable and the
// watermark may pass it, so watermark waiters converge instead of hanging
// behind a non-durable record parked in the OS cache. The cost stays
// amortized: one fsync per drain, shared by however many producers staged
// into it.
func (j *Journal) writeBatch(batch []gcEntry) error {
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

// writeEncodedLocked writes one already-encoded record with fileMu held:
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

// openSegment starts a fresh segment with fileMu held (or before the journal
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
// The callback runs with fileMu held and must not call back into the
// journal.
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
		j.mu.Lock()
		j.ctl.observe(batch+len(j.staged), took)
		onSync := j.onSync
		j.mu.Unlock()
		if onSync != nil {
			onSync(batch, took)
		}
	}
	return nil
}
