package journal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// A shard is one staged write pipeline, and the only code that writes a
// segment: queue → flusher → write → one fsync → watermark. Append never
// touches a file. The record is ticketed and encoded into the shard's one
// bounded staging queue (the window clustering in shardFor picks the shard)
// and the shard's flusher goroutine drains the queue, writes the whole batch
// in one pass and issues a single fsync for it. The shards' flushers run in
// parallel — N independent write+fsync pipelines.
//
// Durability: a DurableSubmits submit or ownership record does not return
// from Append until the batch holding it has been fsynced — the caller
// blocks on a commit-notify channel, so N concurrent submitters share one
// fsync. AppendAsync opts out of the wait and relies on the commit watermark
// instead.
//
// Ordering: every staged entry takes a ticket from the journal's global
// counter while holding the queue lock, and the flusher takes the whole
// queue under that lock, so a shard's segment files are strictly in ticket
// order. A torn tail (a file-suffix loss) therefore loses only a ticket
// suffix of its shard — which is what Replay's last-record-wins folding and
// the crash-recovery audits rely on — and the commit watermark never passes
// a staged ticket, because the watermark scan reads the queue under the same
// lock that issued it.
//
// Crash semantics: records staged but not yet flushed are exactly what a
// killed process loses, and durable waiters parked on them are unblocked
// with errCrashed (in a real crash the process dies and nobody is
// acknowledged).

// defaultStageCap bounds each shard's staged-entry count. A full queue blocks
// its producers (backpressure) until the flusher drains it, so a stalled disk
// surfaces as slow appends rather than unbounded memory.
const defaultStageCap = 8 * 1024

// errCrashed unblocks durable waiters whose batch was dropped by Crash.
var errCrashed = errors.New("journal: crashed before the staged record reached disk")

// gcEntry is one staged record.
type gcEntry struct {
	tick uint64
	buf  []byte
	// done receives the batch's write+fsync outcome; nil for entries that
	// do not wait (non-durable, or async-durable), which return as soon as
	// they are staged.
	done chan error
}

// shard is one stripe: its staging queue, its flusher and its segment files.
type shard struct {
	j   *Journal
	id  int
	dir string

	// stageMu guards the staging queue; notFull is signaled when the
	// flusher drains it.
	stageMu sync.Mutex
	notFull *sync.Cond
	staged  []gcEntry

	// flushMu serializes this shard's drains: the flusher's own flushes,
	// the explicit drains from Sync/WriteSnapshot, and Crash's drop all
	// exclude each other.
	flushMu sync.Mutex

	// inflightMin is the lowest ticket in the batch currently between queue
	// drain and fsync (0: none). It is set in the same critical section that
	// empties the queue and cleared only after the batch's write+fsync
	// succeeds, so the watermark scan never loses sight of a staged ticket
	// mid-flush — and never sees past one whose flush failed.
	inflightMin atomic.Uint64

	// queued mirrors the queue's length (maintained under stageMu, read
	// without it) so the pace loop's poll is one atomic load — a spinning
	// flusher must not contend with the producers it is waiting for.
	queued atomic.Int64

	kick chan struct{} // buffered(1): wake the flusher
	exit chan struct{} // closed by the flusher on return

	// mu guards the segment state below. Only the flusher's batch write,
	// WriteSnapshot's seal/reopen and Close/Crash take it, so shards never
	// contend with each other. f is nil while WriteSnapshot has the segment
	// sealed and after Close or Crash.
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	seq     int
	size    int64
	pending int // records written since the last fsync
	stats   ShardStats
}

func newShard(j *Journal, id int, dir string) *shard {
	s := &shard{
		j: j, id: id, dir: dir,
		stats: ShardStats{Shard: id},
		kick:  make(chan struct{}, 1),
		exit:  make(chan struct{}),
	}
	s.notFull = sync.NewCond(&s.stageMu)
	return s
}

// stage tickets, encodes and parks one record in the queue. A durable entry
// blocks until its batch is on disk unless wait is false (async-durable), in
// which case the returned ticket is the caller's handle for AwaitDurable.
func (s *shard) stage(rec Record, durable, wait bool) (uint64, error) {
	s.stageMu.Lock()
	for len(s.staged) >= s.j.stageCap && s.j.terminalErr() == nil {
		s.notFull.Wait()
	}
	if err := s.j.terminalErr(); err != nil {
		s.stageMu.Unlock()
		return 0, err
	}
	// The ticket is taken — and the record encoded with it — under the
	// queue lock: staging order equals ticket order, and the watermark scan
	// takes the same lock, so it never sees the ticket counter ahead of the
	// staged entry.
	rec.Tick = s.j.tick.Add(1)
	buf, err := encodePooled(rec)
	if err != nil {
		s.stageMu.Unlock()
		return 0, err
	}
	e := gcEntry{tick: rec.Tick, buf: buf}
	if durable && wait {
		e.done = make(chan error, 1)
	}
	s.staged = append(s.staged, e)
	queued := s.queued.Add(1)
	s.stageMu.Unlock()

	// Kick only on the empty→non-empty transition: during a burst the
	// flusher is already awake (pacing or draining), and waking it per
	// record is a futex round-trip per append on the hot path. A record
	// staged mid-drain that this misses is caught by the flusher's own
	// post-drain recheck in run.
	if queued == 1 {
		s.wake()
	}
	if e.done != nil {
		return rec.Tick, <-e.done
	}
	return rec.Tick, nil
}

func (s *shard) wake() {
	select {
	case s.kick <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// run is the shard's flusher goroutine: drain on every kick, final drain of
// the staged tail once the journal leaves the open state.
func (s *shard) run() {
	defer close(s.exit)
	for {
		select {
		case <-s.kick:
			s.pace()
			if !s.flushGated() {
				return
			}
			// Producers only kick on the empty→non-empty transition, so an
			// entry staged after the drain swept the queue may carry no
			// pending wake-up — recheck and self-kick rather than sleep on
			// staged work.
			if s.queued.Load() > 0 {
				s.wake()
			}
		case <-s.j.quit:
			s.flush()
			return
		}
	}
}

// flushGated is the flusher-goroutine drain: it honors the test-only hold
// gate, parking before the drain while a hold is installed. The gate is
// read under flushMu and the drain runs without releasing it, which —
// paired with HoldFlush's all-flushMu barrier — closes the straddle race: a
// drain that saw no gate cannot sweep records staged after a hold was
// installed. Returns false when quit was observed while parked (the flusher
// must exit).
func (s *shard) flushGated() bool {
	s.flushMu.Lock()
	gate := s.j.holdGate()
	if gate == nil {
		s.flushLocked()
		s.flushMu.Unlock()
		return true
	}
	s.flushMu.Unlock()
	select {
	case <-gate:
		s.flush()
		return true
	case <-s.j.quit:
		// Same as run's quit branch: one final drain. After a crash the
		// queue is already empty (Crash drops them under flushMu before
		// closing quit); after a close it is the staged tail.
		s.flush()
		return false
	}
}

// pace is the adaptive flush deadline: wait for the burst of concurrent
// producers to finish staging before paying the fsync, so the whole burst
// shares one. Three exits — the batch target filled, the arrivals went
// quiet (a sync-ack producer blocks until the drain, so once staging stops
// no further wait can grow the batch), or the deadline (half an fsync)
// expired.
func (s *shard) pace() {
	ctl := &s.j.ctl
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
	last := int(s.queued.Load())
	if !ctl.paceWorthwhile() && last <= 1 {
		return
	}
	// Kicks coalesce (the channel holds one token), so everything may
	// already be staged by the time the flusher wakes: check the target
	// before the gather loop, not only inside it.
	target := ctl.batchTarget(s.j.stageCap)
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
		case <-s.j.quit:
			return
		default:
		}
		runtime.Gosched()
		n := int(s.queued.Load())
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

// minPending returns the lowest not-yet-durable ticket the shard owns (0:
// none). The queue is read before the in-flight marker because state only
// moves forward along that chain, and take publishes the marker in the same
// critical section that empties the queue — so a ticket is visible in one of
// the two until its fsync returns. The queue is in ticket order, so its head
// is its minimum.
func (s *shard) minPending() uint64 {
	min := uint64(0)
	s.stageMu.Lock()
	if len(s.staged) > 0 {
		min = s.staged[0].tick
	}
	s.stageMu.Unlock()
	if m := s.inflightMin.Load(); m != 0 && (min == 0 || m < min) {
		min = m
	}
	return min
}

// take empties the queue and returns it, in ticket order, waking blocked
// producers. The batch's lowest ticket is published as inflightMin before
// the lock is released, keeping every ticket visible to the watermark scan.
func (s *shard) take() []gcEntry {
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	out := s.staged
	if len(out) == 0 {
		return nil
	}
	s.inflightMin.Store(out[0].tick)
	s.staged = nil
	s.queued.Add(-int64(len(out)))
	s.notFull.Broadcast()
	return out
}

// flush drains the queue and writes the batch with one trailing fsync.
// Waiters are notified with the batch's outcome.
func (s *shard) flush() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	return s.flushLocked()
}

// flushLocked is flush with flushMu already held.
func (s *shard) flushLocked() error {
	batch := s.take()
	if len(batch) == 0 {
		return nil
	}
	err := s.writeBatch(batch)
	if err != nil {
		// The batch is already drained from the queue, so its tickets can
		// never reach disk through a later flush. Latch the journal failed —
		// reject further appends, fail parked AwaitDurable callers — and
		// leave inflightMin set so the watermark can never pass the lost
		// tickets: clearing it here would let async-durable producers (no
		// done channel) observe false durability after an I/O error such as
		// ENOSPC.
		s.j.fail(err)
		s.j.failWaiters(err)
	} else {
		s.inflightMin.Store(0)
		s.j.advanceWatermark()
	}
	for _, e := range batch {
		if e.done != nil {
			e.done <- err
		}
	}
	return err
}

// writeBatch appends a drained batch under the shard's lock: every record
// is written (rotating segments as needed), then a single fsync covers the
// whole batch. Always fsyncing the batch — not only when it carries
// durable-class records — is what the commit watermark leans on: once a
// flush cycle completes, every ticket it drained is durable and the
// watermark may pass it, so async-durable waiters converge instead of
// hanging behind a non-durable record parked in the OS cache. The cost
// stays amortized: one fsync per drain, shared by however many producers
// staged into it.
func (s *shard) writeBatch(batch []gcEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	for _, e := range batch {
		if err := s.writeEncodedLocked(e.buf); err != nil {
			return err
		}
		recycleFrame(e.buf)
	}
	return s.syncLocked()
}

// writeEncodedLocked writes one already-encoded record with s.mu held:
// segment rotation, buffered write and counter updates, no fsync decision.
func (s *shard) writeEncodedLocked(buf []byte) error {
	if s.size > 0 && s.size+int64(len(buf)) > s.j.opts.segmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := s.w.Write(buf); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	s.size += int64(len(buf))
	s.stats.Appends++
	s.stats.Bytes += int64(len(buf))
	s.pending++
	return nil
}

// openSegment starts a fresh segment with s.mu held (or before the journal
// is shared). A file's fsync does not persist its directory entry (fsync(2)),
// so the shard directory is synced once here: a record acked in a brand-new
// segment is otherwise not safe.
func (s *shard) openSegment(seq int) error {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(seq)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	s.seq = seq
	s.size = 0
	return nil
}

// rotateLocked seals the current segment and opens the next one.
func (s *shard) rotateLocked() error {
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("journal: close segment: %w", err)
	}
	s.stats.Rotations++
	return s.openSegment(s.seq + 1)
}

// syncLocked flushes the buffer and fsyncs the current segment, feeding the
// adaptive controller and the fsync observers with the batch it covered.
// The callbacks run with s.mu held and must not call back into the journal.
func (s *shard) syncLocked() error {
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	batch := s.pending
	t0 := time.Now()
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	took := time.Since(t0)
	s.stats.Syncs++
	s.pending = 0
	if batch > 0 {
		s.j.ctl.observe(batch, took)
		s.j.obsMu.Lock()
		onSync, onShardSync := s.j.onSync, s.j.onShardSync
		s.j.obsMu.Unlock()
		if onSync != nil {
			onSync(batch, took)
		}
		if onShardSync != nil {
			onShardSync(s.id, batch, took)
		}
	}
	return nil
}
