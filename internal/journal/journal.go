package journal

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Options configure a journal. The zero value is production: gyan-server and
// cluster members open their journals with it. There is one durability mode —
// Append waits for the fsync of a durable-class record (see durableType) and
// returns any other once it is staged.
type Options struct {
	// segmentBytes rotates to a new segment once the current one reaches
	// this size; zero is 1 MiB, and only the rotation tests set another. A
	// segment always holds at least one record, however large.
	segmentBytes int64
	// Deprecated: durable-class records always wait; nothing reads this.
	DurableSubmits bool
	// Deprecated: one pipeline; nothing reads this.
	Shards int
	// Deprecated: group commit is the only write path; nothing reads this.
	GroupCommit bool
	// Deprecated: the adaptive controller is always on; nothing reads this.
	Adaptive bool
}

// Deprecated: one pipeline; nothing reads this.
const DefaultShards = 1

// Stats counts a journal's write-side activity, for the overhead benchmark
// and the recovery status API.
type Stats struct {
	// Appends is the number of records written.
	Appends int
	// Syncs is the number of fsync calls issued.
	Syncs int
	// Rotations is the number of segment rotations.
	Rotations int
	// Bytes is the total encoded record bytes written.
	Bytes int64
	// Segment is the current segment's sequence number.
	Segment int
	// Segments is the number of live segment files the journal writes to
	// and has not yet compacted away.
	Segments int
	// Staged is the number of records parked in the staging queue, waiting
	// for the flusher.
	Staged int
	// Watermark is the commit watermark: the highest ticket t such that
	// every ticket issued up to and including t has been fsynced. It is
	// monotonic — once a ticket is at or below it, it is durable forever —
	// which is what a durable Append and AwaitDurable wait on.
	Watermark uint64
	// Tick is the highest ticket issued so far.
	Tick uint64
	// FsyncEWMA and FlushDelay expose the adaptive controller's state: the
	// fsync-duration estimate and the flush deadline derived from it.
	FsyncEWMA  time.Duration `json:",omitempty"`
	FlushDelay time.Duration `json:",omitempty"`
}

// Journal is the append side of a write-ahead log directory. It is safe
// for concurrent use.
type Journal struct {
	dir      string
	segDir   string // where new segments go: dir/shard-00
	opts     Options
	stageCap int      // defaultStageCap, except in the backpressure tests
	lock     *os.File // held flock on the directory's LOCK file

	// tick issues commit tickets: a journal-wide total order over records.
	// The high bits hold the incarnation epoch (see Open), so tickets from
	// a restarted process always outrank its predecessor's.
	tick atomic.Uint64
	// wm is the published commit watermark; it only ever grows.
	wm atomic.Uint64

	// wmMu/wmCond park AwaitDurable callers; wmErr terminates them when
	// the journal fails, closes or crashes with tickets still un-fsynced.
	wmMu   sync.Mutex
	wmCond *sync.Cond
	wmErr  error

	// err is the journal's one terminal state, and what appends get once it
	// is set: nil while open, the I/O error after a failed flush, errClosed
	// after Close or Crash. Whoever moves it off nil closes quit (stopping
	// the flusher); whoever moves it to errClosed owns the files and the
	// flock. The staging queue observes it under stageMu after latch's
	// broadcast.
	stateMu sync.Mutex
	err     error
	quit    chan struct{}
	// hold, when non-nil, parks the flusher before each drain until the
	// channel is closed — see HoldFlush.
	hold chan struct{}

	// stageGate serializes ticket issue against WriteSnapshot: appenders
	// hold it shared while staging, the snapshot holds it exclusive while
	// stamping its own tickets, so no in-flight append can take a ticket
	// below the snapshot's cutoff and then be wrongly dropped by the
	// tick-filtered replay.
	stageGate sync.RWMutex

	// stageMu guards the staging queue; notFull is signaled when the
	// flusher drains it.
	stageMu sync.Mutex
	notFull *sync.Cond
	staged  []gcEntry

	// flushMu serializes drains: the flusher's own flushes, the explicit
	// drains from Sync/WriteSnapshot, and Crash's drop all exclude each
	// other.
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
	// WriteSnapshot's seal/reopen and Close/Crash take it. f is nil while
	// WriteSnapshot has the segment sealed and after Close or Crash.
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	seq     int
	size    int64
	pending int   // records written since the last fsync
	stats   Stats // Appends, Syncs, Rotations and Bytes

	// onSync, when set, observes each fsync that made appended records
	// durable: the batch size (records since the previous fsync) and how
	// long the disk took.
	obsMu  sync.Mutex
	onSync func(records int, took time.Duration)

	// ctl paces the flusher from the fsync cost it measures.
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
// segments are never written to again: appends go to a fresh segment under
// dir/shard-00/ above every sequence number in the directory, so a torn tail
// from a previous crash stays isolated in its own file. Older versions wrote
// two more layouts, both read formats only: wal-* directly in dir (the flat
// layout) and several shard-NN/ directories side by side. Replay merges them
// all by ticket, Open never appends to them, and the next WriteSnapshot
// compacts them away. (The shard-00 name, like snap-*.json, is historical.)
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
	// every incarnation opens its segment at maxSeq+1, so 1 + the max over
	// every stream is strictly above all prior epochs — reopening never
	// reuses one, whatever layout the directory started with.
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

	j := &Journal{
		dir: dir, segDir: filepath.Join(dir, shardDirName(0)), opts: opts, stageCap: stageCap, lock: lock,
		quit: make(chan struct{}), kick: make(chan struct{}, 1), exit: make(chan struct{}),
	}
	j.wmCond = sync.NewCond(&j.wmMu)
	j.notFull = sync.NewCond(&j.stageMu)
	j.tick.Store(uint64(maxSeq+1) << tickEpochShift)
	j.wm.Store(j.tick.Load())
	if err := os.MkdirAll(j.segDir, 0o755); err != nil {
		return fail(fmt.Errorf("journal: create %s: %w", j.segDir, err))
	}
	// The first segment opens above the journal-wide max, not just above
	// shard-00's own tail. Seeding from that tail alone would break the
	// epoch over a directory whose other streams (flat-layout wal-* files,
	// other shard-NN/ directories) pin maxSeq higher: shard-00 would never
	// catch up, so every crash incarnation would recompute the same maxSeq
	// and reissue the same epoch — duplicating commit tickets across
	// incarnations and breaking replay's last-record-wins fold. Opening at
	// maxSeq+1 makes any incarnation's mere existence raise the next Open's
	// maxSeq.
	if err := j.openSegment(maxSeq + 1); err != nil {
		return fail(err)
	}
	go j.run()
	return j, nil
}

// Stats returns a snapshot of the write-side counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	out := j.stats
	out.Segment = j.seq
	j.mu.Unlock()
	if segs, err := listSeqs(j.segDir, segPrefix, segSuffix); err == nil {
		out.Segments = len(segs)
	}
	out.Staged = int(j.queued.Load())
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

// durableType reports whether Append waits for a record type's fsync:
// submissions and every ownership move. A crash must never un-ack a
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

// Append stages one record for the flusher. A durable-class record (see
// durableType) then waits for the commit watermark to pass it, so a job
// acknowledged to the user is never lost to a crash; any other returns as
// soon as it is staged — a lost start or complete record only costs a
// re-execution, never a job.
func (j *Journal) Append(rec Record) error {
	tick, err := j.AppendAsync(rec)
	if err != nil || !durableType(rec.Type) {
		return err
	}
	return j.AwaitDurable(tick)
}

// AppendAsync stages rec like Append but never waits for the fsync: even a
// durable-class record returns as soon as it is staged, with the commit
// ticket it was assigned. The caller awaits durability in bulk instead —
// AwaitDurable(tick) (or polling Stats().Watermark) reports when the record
// is on disk. A crash before the flush drops the record; the ticket then
// never reaches the watermark.
func (j *Journal) AppendAsync(rec Record) (uint64, error) {
	j.stageGate.RLock()
	defer j.stageGate.RUnlock()
	return j.stage(rec)
}

// AwaitDurable blocks until the commit watermark reaches tick — i.e. until
// the record that Append/AppendAsync assigned that ticket is fsynced, along
// with everything staged before it. It returns an error if the journal
// fails, closes or crashes first with the ticket still un-fsynced: the
// caller's record was dropped and must not be treated as acknowledged.
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
// issued before it is visible in the staging queue or the in-flight batch
// marker (see minPending) until it is durable.
func (j *Journal) advanceWatermark() {
	w := j.tick.Load()
	if m := j.minPending(); m != 0 && m-1 < w {
		w = m - 1
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

// HoldFlush parks the flusher before its next drain until ch is closed
// (nil clears the gate). It is a deterministic test hook: the window it
// opens (records staged but not yet flushed) is exactly what crash tests
// need to exist reliably. Taking flushMu first makes the install a barrier:
// a drain that already passed its gate check finishes before the hold lands
// (it holds flushMu throughout — see flushGated), and every drain that
// starts afterwards re-checks the gate under flushMu, so no flusher drain
// can sweep records staged after this call returns.
func (j *Journal) HoldFlush(ch chan struct{}) {
	j.flushMu.Lock()
	j.stateMu.Lock()
	j.hold = ch
	j.stateMu.Unlock()
	j.flushMu.Unlock()
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
// On the first move off open it takes the staging lock once — a producer
// that read the open state under the queue lock has finished staging by
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
		j.stageMu.Lock()
		j.notFull.Broadcast()
		j.stageMu.Unlock()
	}
	return prev
}

// fail latches the journal after a write or fsync error: appends are
// rejected with err from here on and the flusher stops, draining the staged
// tail on the way out. Safe to call from inside the flusher — quit is
// closed, not waited on. The files and the flock stay with the eventual
// Close or Crash.
func (j *Journal) fail(err error) {
	if j.latch(err) == nil {
		close(j.quit)
	}
}

// Close drains the staged tail, stops the flusher, syncs and closes the
// segment and releases the directory lock.
func (j *Journal) Close() error {
	prev := j.latch(errClosed)
	if prev == errClosed {
		return nil
	}
	if prev == nil {
		close(j.quit) // the flusher's final flush drains the staged tail
	}
	<-j.exit
	first := prev // an earlier flush failure is still Close's to report
	j.mu.Lock()
	if j.f != nil {
		err := j.syncLocked()
		if cerr := j.f.Close(); err == nil {
			err = cerr
		}
		j.f, j.w = nil, nil
		if first == nil {
			first = err
		}
	}
	j.mu.Unlock()
	j.advanceWatermark()
	j.failWaiters(errClosed)
	releaseLock(j.lock)
	return first
}

// Crash abandons the journal the way a killed process would: staged
// (un-fsynced) records are dropped on the floor and the file handle is
// closed without flushing. Tests and the crash-recovery experiment use it
// to model a handler dying mid-write.
func (j *Journal) Crash() error { return j.CrashTorn(nil) }

// CrashTorn is Crash plus a torn in-flight write: after dropping the staged
// records, the given garbage bytes are appended raw to the live segment,
// modeling a record that made it partially to disk before the power went
// out. Replay must detect and discard the torn tail.
func (j *Journal) CrashTorn(garbage []byte) error {
	prev := j.latch(errClosed)
	if prev == errClosed {
		return fmt.Errorf("journal: crash on closed journal")
	}
	// Excluding the flusher via flushMu means an in-flight batch finishes
	// its write first (it was handed to the OS before the "power cut");
	// everything still staged after that is dropped on the floor, its
	// tickets left under inflightMin so the watermark never passes them.
	j.flushMu.Lock()
	for _, e := range j.take() {
		recycleFrame(e.buf)
	}
	j.flushMu.Unlock()
	if prev == nil {
		close(j.quit)
	}
	j.failWaiters(errCrashed)
	<-j.exit
	j.mu.Lock()
	f := j.f
	j.f, j.w = nil, nil // drop the buffer: un-synced bytes vanish
	j.mu.Unlock()
	var err error
	// f is nil when WriteSnapshot has the segment sealed for the swap:
	// there is no handle to close and no live segment to tear.
	if f != nil {
		err = f.Close()
		if err == nil && len(garbage) > 0 {
			err = appendGarbage(f.Name(), garbage)
		}
	}
	releaseLock(j.lock) // the kernel would drop a dead process's flock
	return err
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
// the journal atomically installs them as a snapshot, rotates to a fresh
// segment, and deletes every older segment — in every stream an older
// layout left too — and every older snapshot. Replay afterwards sees the
// snapshot records followed by whatever is appended next.
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
	// Drain the queue: the snapshot must supersede every record appended
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
		var err error
		if buf, err = appendFrame(buf, &rec); err != nil {
			return err
		}
	}
	// Seal the current segment; the snapshot replaces it and everything
	// before it.
	j.mu.Lock()
	if j.f == nil { // a Close or Crash landed since the check above
		j.mu.Unlock()
		return errClosed
	}
	err := j.syncLocked()
	if err == nil {
		err = j.f.Close()
	}
	j.f, j.w = nil, nil
	sealed := j.seq
	j.mu.Unlock()
	if err != nil {
		j.fail(err) // a half-sealed journal must error loudly, not append
		return fmt.Errorf("journal: seal segment: %w", err)
	}
	// Snapshots have their own top-level seq space; supersession runs on
	// tickets, the seq only has to grow.
	base := 1
	if snaps, err := listSeqs(j.dir, snapPrefix, snapSuffix); err == nil && len(snaps) > 0 {
		base = snaps[len(snaps)-1] + 1
	}
	ierr := j.installSnapshot(base, buf)
	// From here on the old segment is sealed: whatever happens, Append must
	// end up with a live segment to write to or a latched journal that
	// errors loudly — never a buffer draining into a closed file.
	j.mu.Lock()
	// A Crash or Close that landed while the segment was sealed owns the
	// journal now: do not resurrect a file handle under it.
	err = j.terminalErr()
	if err == nil {
		if err = j.openSegment(sealed + 1); err != nil {
			j.fail(err)
		}
	}
	j.mu.Unlock()
	if ierr != nil {
		// With err nil the journal is appendable again; the sealed segments
		// stay on disk, so no history was lost.
		return ierr
	}
	if err != nil {
		return err
	}
	// Compaction: everything the snapshot covers is garbage now — every
	// segment below the fresh one, in the flat layout and in every shard
	// directory an older version wrote (Open puts every segment of every
	// stream below it), and every older snapshot.
	shardDirs, _ := listShardDirs(j.dir)
	removeSeqs(j.dir, segPrefix, segSuffix, sealed+1)
	for _, sd := range shardDirs {
		removeSeqs(filepath.Join(j.dir, sd), segPrefix, segSuffix, sealed+1)
	}
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
// order across every stream — the segment directory, any other shard-NN/
// directory and any flat-layout top-level segments an older version left. A missing or empty directory
// replays as no records, and Replay never panics on corrupt input.
//
// Corruption is handled per layer. A corrupt record inside a segment ends
// only that segment: it is the torn tail a crashed writer leaves behind,
// and because every process incarnation appends to its own fresh segment
// (Open never reopens an old file), any later segment was written after
// the crash and is still trusted — replay skips to it and keeps going. In a
// journal an older version striped, a torn tail costs only its own
// stripe's staged records; the other stripes' records still merge in
// ticket order around the gap. The first such
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
	// Read every file first, so the output slice is sized once and each
	// record is decoded straight into its final slot.
	var snap []byte
	var snapFile string
	if len(snaps) > 0 {
		snapFile = snapName(snaps[len(snaps)-1])
		if snap, err = os.ReadFile(filepath.Join(dir, snapFile)); err != nil {
			return nil, nil, fmt.Errorf("journal: read snapshot: %w", err)
		}
	}
	frames := countFrames(snap)
	type segment struct {
		name   string
		b      []byte
		stream int
	}
	var segments []segment
	// Each stream is one directory's segments in sequence order: the flat
	// layout's top-level wal-* files (label ""), then every shard.
	streams := append([]string{""}, shardDirs...)
	for i, label := range streams {
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
			segments = append(segments, segment{filepath.Join(label, name), b, i})
			frames += countFrames(b)
		}
	}

	var out []Record
	if frames > 0 {
		out = make([]Record, 0, frames)
	}
	out, cerr := decodeStream(out, snap, snapFile, 0)
	if cerr != nil {
		return out, []*CorruptRecordError{cerr}, nil
	}
	// The snapshot supersedes every segment ticket below its own.
	minSnapTick := uint64(0)
	for _, r := range out {
		if minSnapTick == 0 || r.Tick < minSnapTick {
			minSnapTick = r.Tick
		}
	}
	nsnap := len(out)
	var corrupt []*CorruptRecordError
	ends := make([]int, len(streams)) // where each stream ends in out[nsnap:]
	for _, seg := range segments {
		var cerr *CorruptRecordError
		out, cerr = decodeStream(out, seg.b, seg.name, minSnapTick)
		if cerr != nil {
			corrupt = append(corrupt, cerr)
		}
		ends[seg.stream] = len(out) - nsnap
	}
	for i := 1; i < len(ends); i++ {
		ends[i] = max(ends[i], ends[i-1]) // a stream without files is empty
	}
	mergeByTick(out[nsnap:], ends)
	return out, corrupt, nil
}

// mergeByTick puts the segment records into ticket order. recs is the
// streams' records back to back, stream i ending at ends[i]. The writer
// lays its files down strictly in ticket order, so a stream is checked in
// one pass and stable-sorted only when it is out of order (the flat layout,
// or a shard an older version wrote); the streams are then merged, ties (records
// written before tickets existed carry 0) taken in stream order. The result
// is exactly a stable sort of recs by ticket, and each record moves at most
// once.
func mergeByTick(recs []Record, ends []int) {
	if ticketOrdered(recs) {
		return
	}
	type run struct{ next, end int }
	var runs []run
	lo := 0
	for _, hi := range ends {
		if lo < hi {
			if s := recs[lo:hi]; !ticketOrdered(s) {
				slices.SortStableFunc(s, func(a, b Record) int { return cmp.Compare(a.Tick, b.Tick) })
			}
			runs = append(runs, run{lo, hi})
		}
		lo = hi
	}
	// src[i] is the index of the record that belongs at position i.
	src := make([]int, len(recs))
	for i := range src {
		best := 0
		for r := 1; r < len(runs); r++ {
			if recs[runs[r].next].Tick < recs[runs[best].next].Tick {
				best = r
			}
		}
		src[i] = runs[best].next
		if runs[best].next++; runs[best].next == runs[best].end {
			runs = slices.Delete(runs, best, best+1)
		}
	}
	// Apply the permutation cycle by cycle; a placed position marks itself.
	for i := range src {
		if src[i] == i {
			continue
		}
		tmp := recs[i]
		j := i
		for src[j] != i {
			k := src[j]
			recs[j] = recs[k]
			src[j] = j
			j = k
		}
		recs[j] = tmp
		src[j] = j
	}
}

func ticketOrdered(recs []Record) bool {
	for i := 1; i < len(recs); i++ {
		if recs[i].Tick < recs[i-1].Tick {
			return false
		}
	}
	return true
}
