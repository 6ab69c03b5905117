package journal

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Options configure a journal. The zero value is the production
// configuration: DefaultShards staged pipelines, adaptive group commit.
type Options struct {
	// segmentBytes rotates to a new segment once the current one reaches
	// this size; zero is 1 MiB, and only the rotation tests set another. A
	// segment always holds at least one record, however large.
	segmentBytes int64
	// DurableSubmits makes Append block on submit and ownership records
	// until the batch holding them is fsynced, so a job acknowledged to the
	// user can never be lost to a crash. Other records return once staged —
	// a lost start or complete record only costs a re-execution, never a
	// job.
	DurableSubmits bool
	// Shards is the number of independent write+fsync pipelines, each with
	// its own segment files (under dir/shard-NN/), rotation and flusher, so
	// concurrent appenders stop funneling into one file. Global order is
	// preserved logically: every record carries a commit ticket and Replay
	// sorts the shards back into total ticket order. Zero means
	// DefaultShards; one is the same pipeline with a single stripe.
	Shards int
	// Deprecated: group commit is the only write path; nothing reads this.
	GroupCommit bool
	// Deprecated: the adaptive controller is always on; nothing reads this.
	Adaptive bool
}

// DefaultShards is the shard count Options' zero value opens.
const DefaultShards = 8

// maxShards bounds Options.Shards (shard directories are two-digit).
const maxShards = 64

// ShardStats counts one stripe pipeline's write-side activity.
type ShardStats struct {
	// Shard is the stripe index.
	Shard int
	// Appends is the number of records written to this stripe.
	Appends int
	// Syncs is the number of fsync calls this stripe issued.
	Syncs int
	// Rotations is the number of segment rotations.
	Rotations int
	// Bytes is the total encoded record bytes written.
	Bytes int64
	// Segment is the stripe's current segment sequence number.
	Segment int
	// Segments is the number of live segment files on disk.
	Segments int
	// Staged is the number of records parked in this stripe's staging
	// queue, waiting for its flusher.
	Staged int
}

// Stats counts a journal's write-side activity, for the overhead benchmark
// and the recovery status API. The aggregate fields sum over every shard;
// Shards carries the per-stripe breakdown.
type Stats struct {
	// Appends is the number of records written.
	Appends int
	// Syncs is the number of fsync calls issued.
	Syncs int
	// Rotations is the number of segment rotations.
	Rotations int
	// Bytes is the total encoded record bytes written.
	Bytes int64
	// Segment is the highest current segment sequence number.
	Segment int
	// Watermark is the commit watermark: the highest ticket t such that
	// every ticket issued up to and including t has been fsynced. It is
	// monotonic — once a ticket is at or below it, it is durable forever —
	// which lets async-durable submitters await durability in bulk.
	Watermark uint64
	// Tick is the highest ticket issued so far.
	Tick uint64
	// FsyncEWMA and FlushDelay expose the adaptive controller's state: the
	// fsync-duration estimate and the flush deadline derived from it.
	FsyncEWMA  time.Duration `json:",omitempty"`
	FlushDelay time.Duration `json:",omitempty"`
	// Shards is the per-stripe breakdown.
	Shards []ShardStats `json:",omitempty"`
}

// Journal is the append side of a write-ahead log directory. It is safe
// for concurrent use.
type Journal struct {
	dir      string
	opts     Options
	stageCap int      // defaultStageCap, except in the backpressure tests
	lock     *os.File // held flock on the directory's LOCK file
	shards   []*shard

	// tick issues commit tickets: a journal-wide total order over records.
	// The high bits hold the incarnation epoch (see Open), so tickets from
	// a restarted process always outrank its predecessor's.
	tick atomic.Uint64
	// wm is the published commit watermark; it only ever grows.
	wm atomic.Uint64

	// wmMu/wmCond park AwaitDurable callers; wmErr terminates them when
	// the journal closes or crashes with tickets still un-fsynced.
	wmMu   sync.Mutex
	wmCond *sync.Cond
	wmErr  error

	// err is the journal's one terminal state, and what appends get once it
	// is set: nil while open, the I/O error after a failed flush, errClosed
	// after Close or Crash. Whoever moves it off nil closes quit (stopping
	// the flushers); whoever moves it to errClosed owns the files and the
	// flock. A staging queue observes it under its own lock after latch's
	// broadcast.
	stateMu sync.Mutex
	err     error
	quit    chan struct{}
	// hold, when non-nil, parks every flusher before each drain until the
	// channel is closed — see HoldFlush.
	hold chan struct{}

	// stageGate serializes ticket issue against WriteSnapshot: appenders
	// hold it shared while staging, the snapshot holds it exclusive while
	// stamping its own tickets, so no in-flight append can take a ticket
	// below the snapshot's cutoff and then be wrongly dropped by the
	// tick-filtered replay.
	stageGate sync.RWMutex

	// onSync/onShardSync, when set, observe each fsync that made appended
	// records durable: the batch size (records since the previous fsync)
	// and how long the disk took.
	obsMu       sync.Mutex
	onSync      func(records int, took time.Duration)
	onShardSync func(shard, records int, took time.Duration)

	// ctl paces the flushers from the fsync cost they measure.
	ctl adaptiveCtl
}

const (
	segPrefix   = "wal-"
	segSuffix   = ".seg"
	snapPrefix  = "snap-"
	snapSuffix  = ".json"
	shardPrefix = "shard-"
)

// tickEpochShift positions the incarnation epoch in a ticket's high bits:
// 2^24 restarts, 2^40 tickets per incarnation.
const tickEpochShift = 40

func seqName(prefix string, seq int, suffix string) string {
	return fmt.Sprintf("%s%08d%s", prefix, seq, suffix)
}
func segName(seq int) string    { return seqName(segPrefix, seq, segSuffix) }
func snapName(seq int) string   { return seqName(snapPrefix, seq, snapSuffix) }
func shardDirName(i int) string { return fmt.Sprintf("%s%02d", shardPrefix, i) }

// parseSeq extracts the sequence number from a segment or snapshot file
// name; ok is false for foreign files.
func parseSeq(name, prefix, suffix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// listSeqs returns the sorted sequence numbers of the directory's files
// with the given prefix/suffix. A missing directory lists as empty.
func listSeqs(dir, prefix, suffix string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: list %s: %w", dir, err)
	}
	var out []int
	for _, e := range entries {
		if n, ok := parseSeq(e.Name(), prefix, suffix); ok {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out, nil
}

// listShardDirs returns the sorted shard subdirectory names of a journal
// directory.
func listShardDirs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: list %s: %w", dir, err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, ok := parseSeq(e.Name(), shardPrefix, ""); ok {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Open creates (or reopens) a journal directory for appending. Existing
// segments are never written to again: each shard's appends go to a fresh
// segment above every sequence number in the directory, so a torn tail from
// a previous crash stays isolated in its own file. The flat layout older
// versions wrote (wal-* directly in dir) is a read format only: Replay
// still merges it, Open never appends to it, and the next WriteSnapshot
// compacts it away.
//
// Open takes an exclusive flock(2) on the directory's LOCK file and holds
// it until Close (or Crash, which models process death). A second live
// process opening the same directory gets ErrLocked — the structural guard
// against two handlers appending to, and both claiming ownership of, one
// journal. The kernel releases the lock when the holder dies, so a standby
// can tell a crashed owner (Open succeeds) from a live one (ErrLocked).
func Open(dir string, opts Options) (*Journal, error) {
	return open(dir, opts, defaultStageCap)
}

// open is Open with the staging bound exposed, for the backpressure tests.
func open(dir string, opts Options, stageCap int) (*Journal, error) {
	if opts.segmentBytes <= 0 {
		opts.segmentBytes = 1 << 20
	}
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if opts.Shards > maxShards {
		opts.Shards = maxShards
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", dir, err)
	}
	lock, err := acquireLock(dir)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Journal, error) {
		releaseLock(lock)
		return nil, err
	}
	// The incarnation epoch must outrank every sequence number any previous
	// incarnation could have issued a ticket under: segment and snapshot
	// seqs only ever grow (compaction reopens past them, never below), and
	// every incarnation opens its segments at maxSeq+1 (see the shard loop
	// below), so 1 + the max over every stream is strictly above all prior
	// epochs — reopening never reuses one, whatever layout the directory
	// started with.
	maxSeq := 0
	bump := func(dir, prefix, suffix string) error {
		seqs, err := listSeqs(dir, prefix, suffix)
		if n := len(seqs); n > 0 && seqs[n-1] > maxSeq {
			maxSeq = seqs[n-1]
		}
		return err
	}
	shardDirs, err := listShardDirs(dir)
	if err == nil {
		err = bump(dir, segPrefix, segSuffix)
	}
	if err == nil {
		err = bump(dir, snapPrefix, snapSuffix)
	}
	for _, sd := range shardDirs {
		if err == nil {
			err = bump(filepath.Join(dir, sd), segPrefix, segSuffix)
		}
	}
	if err != nil {
		return fail(err)
	}

	j := &Journal{dir: dir, opts: opts, stageCap: stageCap, lock: lock, quit: make(chan struct{})}
	j.wmCond = sync.NewCond(&j.wmMu)
	j.tick.Store(uint64(maxSeq+1) << tickEpochShift)
	j.wm.Store(j.tick.Load())
	for i := 0; i < opts.Shards; i++ {
		sdir := filepath.Join(dir, shardDirName(i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return fail(fmt.Errorf("journal: create %s: %w", sdir, err))
		}
		s := newShard(j, i, sdir)
		j.shards = append(j.shards, s)
		// Every shard's first segment opens above the journal-wide max, not
		// just above that shard's own tail. Seeding from the shard's tail
		// alone would break the epoch over a directory that still holds
		// flat-layout wal-* files: they pin maxSeq high, fresh shard dirs
		// would start at seg 1 and never catch up, so every crash
		// incarnation would recompute the same maxSeq and reissue the same
		// epoch — duplicating commit tickets across incarnations and
		// breaking replay's last-record-wins fold. Opening at maxSeq+1 makes
		// any incarnation's mere existence raise the next Open's maxSeq.
		if err := s.openSegment(maxSeq + 1); err != nil {
			for _, s := range j.shards[:i] {
				s.f.Close()
			}
			return fail(err)
		}
	}
	for _, s := range j.shards {
		go s.run()
	}
	return j, nil
}

// shardWindow clusters consecutive append keys onto one pipeline: keys
// [0,W) share a shard, [W,2W) the next, and so on. Job IDs are issued
// sequentially, so the jobs in flight at any moment span a narrow ID range
// — windowing maps a burst of concurrent submissions to a handful of
// shards, where they share group-commit batches (and their fsyncs), while
// the rotation still spreads sustained load across every pipeline. A pure
// modulo would scatter each burst one record per shard, capping every
// batch at the per-shard occupancy and paying near-per-record fsyncs.
// The width trades batch size against pipeline spread: W concurrent
// submitters occupy one pipeline at full batch, and filesystems whose
// fsyncs degrade under file-level parallelism (a shared journal head)
// favor fewer, fuller pipelines over maximal spread.
const shardWindow = 16

// shardFor maps an append key (the record's job ID) to its pipeline. The
// mapping is stable, so one job's records always land in one shard (lease
// records share shard 0) and per-job order on disk follows from the shard
// file's ticket order.
func (j *Journal) shardFor(key int) *shard {
	return j.shards[(uint(key)/shardWindow)%uint(len(j.shards))]
}

// Stats returns a snapshot of the write-side counters across all shards.
func (j *Journal) Stats() Stats {
	var out Stats
	for _, s := range j.shards {
		s.mu.Lock()
		ss := s.stats
		ss.Segment = s.seq
		s.mu.Unlock()
		if segs, err := listSeqs(s.dir, segPrefix, segSuffix); err == nil {
			ss.Segments = len(segs)
		}
		ss.Staged = int(s.queued.Load())
		out.Appends += ss.Appends
		out.Syncs += ss.Syncs
		out.Rotations += ss.Rotations
		out.Bytes += ss.Bytes
		if ss.Segment > out.Segment {
			out.Segment = ss.Segment
		}
		out.Shards = append(out.Shards, ss)
	}
	out.Watermark = j.wm.Load()
	out.Tick = j.tick.Load()
	out.FsyncEWMA = j.ctl.ewma()
	out.FlushDelay = j.ctl.flushDelay()
	return out
}

// SetSyncObserver installs (or, with nil, removes) the fsync observer. The
// engine wires its metrics registry here so every fsync reports its batch
// size and wall-clock duration; see syncLocked for the callback contract.
func (j *Journal) SetSyncObserver(fn func(records int, took time.Duration)) {
	j.obsMu.Lock()
	j.onSync = fn
	j.obsMu.Unlock()
}

// SetShardSyncObserver installs the per-shard fsync observer: like
// SetSyncObserver but with the stripe index, so metrics can carry a shard
// label.
func (j *Journal) SetShardSyncObserver(fn func(shard, records int, took time.Duration)) {
	j.obsMu.Lock()
	j.onShardSync = fn
	j.obsMu.Unlock()
}

// durableType reports whether a record type is on the DurableSubmits fsync
// list: submissions and every ownership move. A crash must never un-ack a
// submit, and it must never leave two handlers believing they own the same
// job — adopt, steal-prepare/retire/abort and stripe claims are exactly the
// records whose loss would reopen that window.
func durableType(t Type) bool {
	switch t {
	case TypeSubmit, TypeAdopt, TypeStealPrepare, TypeStealRetire, TypeStealAbort, TypeClaim:
		return true
	}
	return false
}

// errClosed rejects appends and snapshots after Close or Crash.
var errClosed = errors.New("journal: closed")

// Append stages one record for its shard's flusher. A durable-class record
// (see Options.DurableSubmits) blocks until its batch reaches disk; any
// other returns as soon as it is staged.
func (j *Journal) Append(rec Record) error {
	_, err := j.append(rec, true)
	return err
}

// AppendAsync stages rec like Append but never waits for the fsync: even a
// durable-class record returns as soon as it is staged, with the commit
// ticket it was assigned. The caller trades the per-record durability ack
// for throughput and awaits durability in bulk instead — AwaitDurable(tick)
// (or polling Stats().Watermark) reports when the record is on disk. A crash
// before the flush drops the record; the ticket then never reaches the
// watermark.
func (j *Journal) AppendAsync(rec Record) (uint64, error) {
	return j.append(rec, false)
}

func (j *Journal) append(rec Record, wait bool) (uint64, error) {
	j.stageGate.RLock()
	defer j.stageGate.RUnlock()
	durable := j.opts.DurableSubmits && durableType(rec.Type)
	return j.shardFor(rec.Job).stage(rec, durable, wait)
}

// Sync forces every staged record to stable storage across every shard.
func (j *Journal) Sync() error {
	var first error
	for _, s := range j.shards {
		if err := s.flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AwaitDurable blocks until the commit watermark reaches tick — i.e. until
// the record that Append/AppendAsync assigned that ticket is fsynced, along
// with everything staged before it. It returns an error if the journal
// closes or crashes first with the ticket still un-fsynced: the caller's
// record was dropped and must not be treated as acknowledged.
func (j *Journal) AwaitDurable(tick uint64) error {
	if tick == 0 || j.wm.Load() >= tick {
		return nil
	}
	j.wmMu.Lock()
	for j.wm.Load() < tick && j.wmErr == nil {
		j.wmCond.Wait()
	}
	err := j.wmErr
	j.wmMu.Unlock()
	if j.wm.Load() >= tick {
		return nil
	}
	return err
}

// advanceWatermark recomputes and publishes the commit watermark. The tick
// counter is read before scanning pending state: any ticket issued after
// the read is above the candidate watermark by construction, and any ticket
// issued before it is visible in a staging queue or the in-flight batch
// marker (see shard.minPending) until it is durable.
func (j *Journal) advanceWatermark() {
	w := j.tick.Load()
	for _, s := range j.shards {
		if m := s.minPending(); m != 0 && m-1 < w {
			w = m - 1
		}
	}
	for {
		old := j.wm.Load()
		if w <= old {
			return
		}
		if j.wm.CompareAndSwap(old, w) {
			j.wmMu.Lock()
			j.wmCond.Broadcast()
			j.wmMu.Unlock()
			return
		}
	}
}

// failWaiters terminates parked AwaitDurable callers whose tickets will
// never reach the watermark.
func (j *Journal) failWaiters(err error) {
	j.wmMu.Lock()
	if j.wmErr == nil {
		j.wmErr = err
	}
	j.wmCond.Broadcast()
	j.wmMu.Unlock()
}

// HoldFlush parks every flusher before its next drain until ch is closed
// (nil clears the gate). It is a deterministic test hook: the window it
// opens (records staged but not yet flushed) is exactly what crash tests
// need to exist reliably. Taking every shard's flushMu first makes the
// install a barrier: a drain that already passed its gate check finishes
// before the hold lands (it holds flushMu throughout — see flushGated), and
// every drain that starts afterwards re-checks the gate under flushMu, so no
// flusher drain can sweep records staged after this call returns.
func (j *Journal) HoldFlush(ch chan struct{}) {
	for _, s := range j.shards {
		s.flushMu.Lock()
	}
	j.stateMu.Lock()
	j.hold = ch
	j.stateMu.Unlock()
	for _, s := range j.shards {
		s.flushMu.Unlock()
	}
}

func (j *Journal) holdGate() chan struct{} {
	j.stateMu.Lock()
	defer j.stateMu.Unlock()
	return j.hold
}

func (j *Journal) terminalErr() error {
	j.stateMu.Lock()
	defer j.stateMu.Unlock()
	return j.err
}

// latch moves the journal to terminal state err and returns the state it
// found: a failure replaces only the open state, errClosed replaces both.
// On the first move off open it takes every staging lock once — a producer
// that read the open state under its queue lock has finished staging by
// then, and every later one (including those parked on a full queue) sees
// the terminal state — so nothing is staged after latch returns.
func (j *Journal) latch(err error) (prev error) {
	j.stateMu.Lock()
	prev = j.err
	if prev == nil || (err == errClosed && prev != errClosed) {
		j.err = err
	}
	j.stateMu.Unlock()
	if prev == nil {
		for _, s := range j.shards {
			s.stageMu.Lock()
			s.notFull.Broadcast()
			s.stageMu.Unlock()
		}
	}
	return prev
}

// fail latches the journal after a write or fsync error: appends are
// rejected with err from here on and the flushers stop, each draining its
// staged tail on the way out and notifying the waiters with that attempt's
// outcome. Safe to call from inside a flusher — quit is closed, not waited
// on. The files and the flock stay with the eventual Close or Crash.
func (j *Journal) fail(err error) {
	if j.latch(err) == nil {
		close(j.quit)
	}
}

// Close drains the staged tail, stops the flushers, syncs and closes the
// segments and releases the directory lock.
func (j *Journal) Close() error {
	prev := j.latch(errClosed)
	if prev == errClosed {
		return nil
	}
	if prev == nil {
		close(j.quit) // each flusher's final flush drains its staged tail
	}
	first := prev // an earlier flush failure is still Close's to report
	for _, s := range j.shards {
		<-s.exit
		s.mu.Lock()
		if s.f != nil {
			err := s.syncLocked()
			if cerr := s.f.Close(); err == nil {
				err = cerr
			}
			s.f, s.w = nil, nil
			if first == nil {
				first = err
			}
		}
		s.mu.Unlock()
	}
	j.advanceWatermark()
	j.failWaiters(errClosed)
	releaseLock(j.lock)
	return first
}

// Crash abandons the journal the way a killed process would: staged
// (un-fsynced) records are dropped on the floor and the file handles are
// closed without flushing. Tests and the crash-recovery experiment use it
// to model a handler dying mid-write.
func (j *Journal) Crash() error { return j.CrashTornShards(nil) }

// CrashTorn is Crash plus a torn in-flight write: after dropping the staged
// records, the given garbage bytes are appended raw to shard 0's current
// segment, modeling a record that made it partially to disk before the
// power went out. Replay must detect and discard the torn tail.
func (j *Journal) CrashTorn(garbage []byte) error {
	return j.CrashTornShards(map[int][]byte{0: garbage})
}

// CrashTornShards is CrashTorn with a tear per shard: each entry's garbage
// is appended to that shard's current segment, so tests can tear any subset
// of the stripes independently — including several at once.
func (j *Journal) CrashTornShards(garbage map[int][]byte) error {
	prev := j.latch(errClosed)
	if prev == errClosed {
		return fmt.Errorf("journal: crash on closed journal")
	}
	// Excluding each flusher via its flushMu means any in-flight batch
	// finishes its write first (it was handed to the OS before the "power
	// cut"); everything still staged after that is dropped on the floor,
	// its tickets left under inflightMin so the watermark never passes them.
	for _, s := range j.shards {
		s.flushMu.Lock()
		for _, e := range s.take() {
			if e.done != nil {
				e.done <- errCrashed
			}
			recycleFrame(e.buf)
		}
		s.flushMu.Unlock()
	}
	if prev == nil {
		close(j.quit)
	}
	j.failWaiters(errCrashed)
	var first error
	for _, s := range j.shards {
		<-s.exit
		s.mu.Lock()
		f := s.f
		s.f, s.w = nil, nil // drop the buffer: un-synced bytes vanish
		s.mu.Unlock()
		if f == nil {
			// WriteSnapshot has this shard's segment sealed for the swap:
			// there is no handle to close and no live segment to tear.
			continue
		}
		err := f.Close()
		if g := garbage[s.id]; err == nil && len(g) > 0 {
			err = appendGarbage(f.Name(), g)
		}
		if first == nil {
			first = err
		}
	}
	releaseLock(j.lock) // the kernel would drop a dead process's flock
	return first
}

// appendGarbage writes raw bytes to the end of a sealed segment, modeling
// the torn half-record a power cut leaves behind.
func appendGarbage(path string, g []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteSnapshot condenses history: the caller provides the records that
// recreate the current state (typically far fewer than the log holds), and
// the journal atomically installs them as a snapshot, rotates every shard
// to a fresh segment, and deletes every older segment and snapshot. Replay
// afterwards sees the snapshot records followed by whatever is appended
// next.
//
// Snapshot records are stamped with fresh tickets under the stage gate —
// held exclusively, so no concurrent append can take a lower ticket — which
// is what lets replay drop superseded segment records by ticket comparison
// alone.
func (j *Journal) WriteSnapshot(recs []Record) error {
	j.stageGate.Lock()
	defer j.stageGate.Unlock()
	if err := j.terminalErr(); err != nil {
		return err
	}
	// Drain the queues: the snapshot must supersede every record appended
	// before it, including staged ones. The gate excludes appenders, so
	// nothing can be staged behind this drain until the snapshot is in.
	if err := j.Sync(); err != nil {
		return err
	}
	// Encode before touching the log so an encoding error leaves the
	// journal fully intact.
	var buf []byte
	for _, rec := range recs {
		rec.Tick = j.tick.Add(1)
		b, err := encode(rec)
		if err != nil {
			return err
		}
		buf = append(buf, b...)
	}
	// Seal every shard's current segment; the snapshot replaces them and
	// everything before them.
	sealed := make([]int, len(j.shards))
	for _, s := range j.shards {
		s.mu.Lock()
		if s.f == nil { // a Close or Crash landed since the check above
			s.mu.Unlock()
			return errClosed
		}
		err := s.syncLocked()
		if err == nil {
			err = s.f.Close()
		}
		s.f, s.w = nil, nil
		sealed[s.id] = s.seq
		s.mu.Unlock()
		if err != nil {
			j.fail(err) // a half-sealed journal must error loudly, not append
			return fmt.Errorf("journal: seal segment: %w", err)
		}
	}
	// Snapshots have their own top-level seq space; supersession runs on
	// tickets, the seq only has to grow.
	base := 1
	if snaps, err := listSeqs(j.dir, snapPrefix, snapSuffix); err == nil && len(snaps) > 0 {
		base = snaps[len(snaps)-1] + 1
	}
	ierr := j.installSnapshot(base, buf)
	// From here on the old segments are sealed: whatever happens, Append
	// must end up with live segments to write to or a latched journal that
	// errors loudly — never a buffer draining into a closed file.
	for _, s := range j.shards {
		s.mu.Lock()
		// A Crash or Close that landed while the segments were sealed owns
		// the shards now: do not resurrect a file handle under it.
		err := j.terminalErr()
		if err == nil {
			if err = s.openSegment(sealed[s.id] + 1); err != nil {
				j.fail(err)
			}
		}
		s.mu.Unlock()
		if err != nil {
			if ierr != nil {
				return ierr
			}
			return err
		}
	}
	if ierr != nil {
		// Snapshot failed but the journal is appendable again; the sealed
		// segments stay on disk, so no history was lost.
		return ierr
	}
	// Compaction: everything the snapshot covers is garbage now — every
	// sealed shard segment, every flat-layout top-level segment, and every
	// older snapshot.
	for _, s := range j.shards {
		removeSeqs(s.dir, segPrefix, segSuffix, sealed[s.id]+1)
	}
	removeSeqs(j.dir, segPrefix, segSuffix, math.MaxInt)
	removeSeqs(j.dir, snapPrefix, snapSuffix, base)
	j.advanceWatermark()
	return nil
}

// installSnapshot writes the encoded snapshot durably: the tmp file is
// written, fsynced and closed, renamed into place, and the directory fsynced
// so the rename itself survives a power cut. WriteSnapshot deletes what the
// snapshot supersedes only after all of that succeeded.
func (j *Journal) installSnapshot(seq int, buf []byte) error {
	tmp := filepath.Join(j.dir, snapName(seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err == nil {
		_, err = f.Write(buf)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(j.dir, snapName(seq)))
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("journal: install snapshot: %w", err)
	}
	return syncDir(j.dir)
}

// removeSeqs deletes the directory's prefix/suffix files numbered below
// limit. Best effort: a file compaction leaves behind is superseded by
// ticket at replay anyway.
func removeSeqs(dir, prefix, suffix string, limit int) {
	seqs, _ := listSeqs(dir, prefix, suffix)
	for _, seq := range seqs {
		if seq < limit {
			_ = os.Remove(filepath.Join(dir, seqName(prefix, seq, suffix)))
		}
	}
}

// Replay reads a journal directory back: the newest snapshot (if any)
// followed by the segment records it does not supersede, in global ticket
// order across every stream — the shard directories plus any flat-layout
// top-level segments an older version left. A missing or empty directory
// replays as no records, and Replay never panics on corrupt input.
//
// Corruption is handled per layer. A corrupt record inside a segment ends
// only that segment: it is the torn tail a crashed writer leaves behind,
// and because every process incarnation appends to its own fresh segment
// (Open never reopens an old file), any later segment was written after
// the crash and is still trusted — replay skips to it and keeps going. A
// torn tail costs only its own stripe's staged records; the other stripes'
// records still merge in ticket order around the gap. The first such
// anomaly is reported as a typed *CorruptRecordError alongside the
// recovered records so callers can surface it and compact the torn segment
// away. A corrupt snapshot, by contrast, destroys the compacted base that
// gives the following segments meaning: replay stops there and returns an
// error with IsSnapshot() true, which callers must treat as data loss, not
// as a routine crash artifact.
func Replay(dir string) ([]Record, error) {
	out, corrupt, err := ReplayAll(dir)
	if err != nil {
		return nil, err
	}
	if len(corrupt) > 0 {
		return out, corrupt[0]
	}
	return out, nil
}

// ReplayAll is Replay with full corruption accounting: instead of reporting
// only the first anomaly, it returns every torn or corrupt record found, one
// per affected segment. A journal that crashed (kill -9) several incarnations
// in a row carries one torn tail per crashed incarnation's segment; audits
// that want to assert "this kill really tore a tail" count them here. A
// snapshot read failure or directory error is still returned as err; snapshot
// corruption is reported as the first (and only) entry of corrupt, with
// IsSnapshot() true, and ends the replay.
func ReplayAll(dir string) ([]Record, []*CorruptRecordError, error) {
	shardDirs, err := listShardDirs(dir)
	if err != nil {
		return nil, nil, err
	}
	snaps, err := listSeqs(dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, nil, err
	}
	var out []Record
	var corrupt []*CorruptRecordError
	minSnapTick := uint64(0)
	if len(snaps) > 0 {
		name := snapName(snaps[len(snaps)-1])
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, fmt.Errorf("journal: read snapshot: %w", err)
		}
		recs, cerr := decodeStream(b, name)
		out = append(out, recs...)
		if cerr != nil {
			return out, []*CorruptRecordError{cerr}, nil
		}
		for _, r := range recs {
			if minSnapTick == 0 || r.Tick < minSnapTick {
				minSnapTick = r.Tick
			}
		}
	}
	// Each stream is one directory's segments in sequence order: the flat
	// layout's top-level wal-* files (label ""), then every shard.
	nsnap := len(out)
	for _, label := range append([]string{""}, shardDirs...) {
		sdir := filepath.Join(dir, label)
		segs, err := listSeqs(sdir, segPrefix, segSuffix)
		if err != nil {
			return nil, nil, err
		}
		for _, s := range segs {
			name := segName(s)
			b, err := os.ReadFile(filepath.Join(sdir, name))
			if err != nil {
				return nil, nil, fmt.Errorf("journal: read segment: %w", err)
			}
			recs, cerr := decodeStream(b, filepath.Join(label, name))
			for _, r := range recs {
				// The snapshot supersedes every ticket below its own.
				if r.Tick >= minSnapTick {
					out = append(out, r)
				}
			}
			if cerr != nil {
				corrupt = append(corrupt, cerr)
			}
		}
	}
	// Merge by ticket with a full stable sort, not a sorted-stream merge:
	// shard files written before each shard staged into one queue are only
	// approximately ticket-ordered, and ties — only possible for records
	// written before tickets existed, which carry 0 — keep stream order.
	all := out[nsnap:]
	sort.SliceStable(all, func(i, k int) bool { return all[i].Tick < all[k].Tick })
	return out, corrupt, nil
}
