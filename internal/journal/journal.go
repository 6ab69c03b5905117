package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
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
// for concurrent use. It has three locks, always taken in the order
// compactMu, fileMu, mu:
//
//   - compactMu serialises compactions; Close and Crash take it too, so they
//     wait for a running one. A compaction holds it while it copies, without
//     the two locks below.
//   - fileMu, the file lock, is what drains take: the flusher, Sync,
//     Compact's seal, Close and Crash. It guards the segment state, the
//     Stats counters and the hold gate. The write and the fsync run under
//     fileMu alone, so producers keep staging during them.
//   - mu, the queue lock, is what producers take. It guards the staging
//     queue, the ticket counter, the watermark, the in-flight marker, the
//     terminal state, the waiters' error, the fsync observer and the pacing
//     EWMAs; notFull and durable wait on it.
type Journal struct {
	dir      string
	segDir   string // where new segments go: dir/shard-00
	opts     Options
	stageCap int      // defaultStageCap, except in the backpressure tests
	lock     *os.File // held flock on the directory's LOCK file

	kick chan struct{} // buffered(1): wake the flusher
	quit chan struct{} // closed by whoever moves err off nil: stop the flusher
	exit chan struct{} // closed by the flusher on return

	mu sync.Mutex
	// notFull is signaled when a drain empties the queue or the journal
	// leaves the open state; durable when the watermark moves or the
	// waiters fail.
	notFull *sync.Cond
	durable *sync.Cond
	staged  []gcEntry
	// tick is the highest commit ticket issued: a journal-wide total order
	// over records. The high bits hold the incarnation epoch (see Open), so
	// tickets from a restarted process always outrank its predecessor's.
	tick uint64
	// wm is the commit watermark; it only ever grows.
	wm uint64
	// inflightMin is the lowest ticket of a drained batch not yet on disk
	// (0: none). It is set in the critical section that takes the batch and
	// never cleared after a failed write, so the watermark never passes a
	// ticket mid-flush or one whose flush failed.
	inflightMin uint64
	// err is the journal's one terminal state, and what appends get once it
	// is set: nil while open, the I/O error after a failed flush, errClosed
	// after Close or Crash. Whoever moves it off nil closes quit; whoever
	// moves it to errClosed owns the files and the flock.
	err error
	// wmErr terminates AwaitDurable callers whose tickets will never reach
	// the watermark: the journal failed, closed or crashed first.
	wmErr error
	// onSync, when set, observes each fsync that made appended records
	// durable: the batch size (records since the previous fsync) and how
	// long the disk took.
	onSync func(records int, took time.Duration)
	// ctl paces the flusher from the fsync cost it measures.
	ctl adaptiveCtl

	// fileMu guards the segment state below. f is nil after Close or Crash.
	fileMu  sync.Mutex
	f       *os.File
	w       *bufio.Writer
	seq     int
	size    int64
	pending int   // records written since the last fsync
	stats   Stats // Appends, Syncs, Rotations and Bytes
	// hold, when non-nil, parks the flusher before each drain until the
	// channel is closed — see HoldFlush.
	hold chan struct{}

	compactMu sync.Mutex
	// afterSeal, when set, runs between a compaction's seal and its copy, with
	// compactMu held and no other lock: a test hook that parks a compaction
	// where it holds nothing appends wait for.
	afterSeal func()
}

const (
	segPrefix   = "wal-"
	segSuffix   = ".seg"
	snapPrefix  = "snap-"
	snapSuffix  = ".json"
	shardPrefix = "shard-"
	segDirName  = shardPrefix + "00"
)

// tickEpochShift positions the incarnation epoch in a ticket's high bits:
// 2^24 restarts, 2^40 tickets per incarnation.
const tickEpochShift = 40

// ErrLegacyFormat is wrapped, with the offending path, by Open, Replay and
// ReplayAll when a directory holds something only an older version wrote: a
// top-level wal-*.seg, a shard-NN/ other than shard-00/, or a frame whose
// payload version byte is not this codec's. They refuse it and change
// nothing; it is never a *CorruptRecordError, so recovery aborts on it rather
// than boot over records it cannot read.
var ErrLegacyFormat = errors.New("journal: legacy on-disk format")

func seqName(prefix string, seq int, suffix string) string {
	return fmt.Sprintf("%s%08d%s", prefix, seq, suffix)
}
func segName(seq int) string  { return seqName(segPrefix, seq, segSuffix) }
func snapName(seq int) string { return seqName(snapPrefix, seq, snapSuffix) }

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

// listSnapshots returns the sorted sequence numbers of the journal
// directory's snapshots, and is the layout check every reader shares: a
// top-level wal-*.seg or a shard-NN/ other than shard-00/ is refused with
// ErrLegacyFormat. A missing directory lists as empty.
func listSnapshots(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: list %s: %w", dir, err)
	}
	var out []int
	for _, e := range entries {
		name := e.Name()
		if n, ok := parseSeq(name, snapPrefix, snapSuffix); ok {
			out = append(out, n)
			continue
		}
		_, seg := parseSeq(name, segPrefix, segSuffix)
		_, shard := parseSeq(name, shardPrefix, "")
		if seg || shard && e.IsDir() && name != segDirName {
			return nil, fmt.Errorf("%w: %s", ErrLegacyFormat, filepath.Join(dir, name))
		}
	}
	sort.Ints(out)
	return out, nil
}

// nextSeq returns the sequence number a new incarnation opens its first
// segment at, which is also its epoch: 1 + the highest segment or snapshot
// seq in the directory. Seqs only ever grow (compaction reopens past them,
// never below) and every incarnation's segment takes the seq it was given,
// so each epoch is strictly above every earlier one. A seq whose successor
// does not fit the epoch bits is an error: the epoch would wrap below the
// tickets already on disk. A directory an older version wrote is refused
// with ErrLegacyFormat, by its layout or by any file's first record.
func nextSeq(dir string) (int, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return 0, err
	}
	segDir := filepath.Join(dir, segDirName)
	segs, err := listSeqs(segDir, segPrefix, segSuffix)
	if err != nil {
		return 0, err
	}
	next := 1
	for _, seq := range snaps {
		next = max(next, seq+1)
		if err := checkFirstFrame(filepath.Join(dir, snapName(seq))); err != nil {
			return 0, err
		}
	}
	for _, seq := range segs {
		next = max(next, seq+1)
		if err := checkFirstFrame(filepath.Join(segDir, segName(seq))); err != nil {
			return 0, err
		}
	}
	if next >= 1<<(64-tickEpochShift) {
		return 0, fmt.Errorf("journal: %s: sequence %d leaves no incarnation epoch below 2^%d", dir, next-1, 64-tickEpochShift)
	}
	return next, nil
}

// checkFirstFrame reads a file's first record and returns the refusal
// decodeStream gives it, if any. Anything else — a torn or corrupt frame, an
// unreadable file — is replay's to report, not Open's.
func checkFirstFrame(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	b := make([]byte, headerSize)
	if _, err := io.ReadFull(f, b); err != nil {
		return nil
	}
	n := binary.LittleEndian.Uint32(b)
	if n > MaxRecord {
		return nil
	}
	b = append(b, make([]byte, n)...)
	if _, err := io.ReadFull(f, b[headerSize:]); err != nil {
		return nil
	}
	if _, err := decodeStream(nil, b, path, 0); errors.Is(err, ErrLegacyFormat) {
		return err
	}
	return nil
}

// Open creates (or reopens) a journal directory for appending. Existing
// segments are never written to again: appends go to a fresh segment under
// dir/shard-00/ above every sequence number in the directory, so a torn tail
// from a previous crash stays isolated in its own file. (The shard-00 name,
// like snap-*.json, is historical.) A directory an older version wrote is
// refused with ErrLegacyFormat, and it and a directory whose sequence numbers
// have run out of epochs are left exactly as they were found.
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
	// Checked once before anything, the lock file included, is created in
	// the directory, and again under the lock for what the last holder left.
	if _, err := nextSeq(dir); err != nil {
		return nil, err
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
	seq, err := nextSeq(dir)
	if err != nil {
		return fail(err)
	}

	j := &Journal{
		dir: dir, segDir: filepath.Join(dir, segDirName), opts: opts, stageCap: stageCap, lock: lock,
		quit: make(chan struct{}), kick: make(chan struct{}, 1), exit: make(chan struct{}),
	}
	j.notFull = sync.NewCond(&j.mu)
	j.durable = sync.NewCond(&j.mu)
	j.tick = uint64(seq) << tickEpochShift
	j.wm = j.tick
	if err := os.MkdirAll(j.segDir, 0o755); err != nil {
		return fail(fmt.Errorf("journal: create %s: %w", j.segDir, err))
	}
	if err := j.openSegment(seq); err != nil {
		return fail(err)
	}
	go j.run()
	return j, nil
}

// Stats returns a snapshot of the write-side counters.
func (j *Journal) Stats() Stats {
	j.fileMu.Lock()
	out := j.stats
	out.Segment = j.seq
	j.fileMu.Unlock()
	if segs, err := listSeqs(j.segDir, segPrefix, segSuffix); err == nil {
		out.Segments = len(segs)
	}
	j.mu.Lock()
	out.Staged = len(j.staged)
	out.Watermark = j.wm
	out.Tick = j.tick
	out.FsyncEWMA = j.ctl.ewma()
	out.FlushDelay = j.ctl.flushDelay()
	j.mu.Unlock()
	return out
}

// SetSyncObserver installs (or, with nil, removes) the fsync observer. The
// engine wires its metrics registry here so every fsync reports its batch
// size and wall-clock duration; see syncLocked for the callback contract.
func (j *Journal) SetSyncObserver(fn func(records int, took time.Duration)) {
	j.mu.Lock()
	j.onSync = fn
	j.mu.Unlock()
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
	j.mu.Lock()
	for len(j.staged) >= j.stageCap && j.err == nil {
		j.notFull.Wait()
	}
	if err := j.err; err != nil {
		j.mu.Unlock()
		return 0, err
	}
	// The ticket is taken — and the record encoded with it — in the
	// critical section that queues it: staging order equals ticket order,
	// and the watermark, computed under the same lock, never sees the
	// counter ahead of the staged entry.
	j.tick++
	rec.Tick = j.tick
	buf, err := encodePooled(rec)
	if err != nil {
		j.mu.Unlock()
		return 0, err
	}
	j.staged = append(j.staged, gcEntry{tick: rec.Tick, buf: buf})
	queued := len(j.staged)
	j.mu.Unlock()

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

// AwaitDurable blocks until the commit watermark reaches tick — i.e. until
// the record that Append/AppendAsync assigned that ticket is fsynced, along
// with everything staged before it. It returns an error if the journal
// fails, closes or crashes first with the ticket still un-fsynced: the
// caller's record was dropped and must not be treated as acknowledged.
func (j *Journal) AwaitDurable(tick uint64) error {
	if tick == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.wm < tick && j.wmErr == nil {
		j.durable.Wait()
	}
	if j.wm >= tick {
		return nil
	}
	return j.wmErr
}

// advanceLocked moves the commit watermark, with mu held, to just below the
// lowest ticket not yet on disk: the in-flight marker, else the queue head,
// else the newest ticket issued. Every in-flight ticket is below every
// queued one, and the queue is in ticket order.
func (j *Journal) advanceLocked() {
	w := j.tick
	if j.inflightMin != 0 {
		w = j.inflightMin - 1
	} else if len(j.staged) > 0 {
		w = j.staged[0].tick - 1
	}
	if w > j.wm {
		j.wm = w
		j.durable.Broadcast()
	}
}

// failWaiters advances the watermark as far as the disk allows and fails
// every parked AwaitDurable caller still below it: their tickets will never
// reach it.
func (j *Journal) failWaiters(err error) {
	j.mu.Lock()
	j.advanceLocked()
	if j.wmErr == nil {
		j.wmErr = err
	}
	j.durable.Broadcast()
	j.mu.Unlock()
}

// HoldFlush parks the flusher before its next drain until ch is closed
// (nil clears the gate). It is a deterministic test hook: the window it
// opens (records staged but not yet flushed) is exactly what crash tests
// need to exist reliably. The gate sits under fileMu, which makes the
// install a barrier: a drain that already passed its gate check finishes
// before the hold lands (it holds fileMu throughout — see flushGated), and
// every drain that starts afterwards re-checks the gate, so no flusher drain
// can sweep records staged after this call returns.
func (j *Journal) HoldFlush(ch chan struct{}) {
	j.fileMu.Lock()
	j.hold = ch
	j.fileMu.Unlock()
}

// latch moves the journal to terminal state err and returns the state it
// found: a failure replaces only the open state, errClosed replaces both.
// It runs under the queue lock, so nothing is staged after it returns, and
// producers parked on a full queue wake to the terminal state.
func (j *Journal) latch(err error) (prev error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	prev = j.err
	if prev == nil || (err == errClosed && prev != errClosed) {
		j.err = err
	}
	if prev == nil {
		j.notFull.Broadcast()
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
	j.compactMu.Lock()
	defer j.compactMu.Unlock()
	prev := j.latch(errClosed)
	if prev == errClosed {
		return nil
	}
	if prev == nil {
		close(j.quit) // the flusher's final flush drains the staged tail
	}
	<-j.exit
	first := prev // an earlier flush failure is still Close's to report
	j.fileMu.Lock()
	err := j.syncLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f, j.w = nil, nil
	j.fileMu.Unlock()
	if first == nil {
		first = err
	}
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
	j.compactMu.Lock()
	defer j.compactMu.Unlock()
	prev := j.latch(errClosed)
	if prev == errClosed {
		return fmt.Errorf("journal: crash on closed journal")
	}
	// Taking fileMu means an in-flight batch finishes its write first (it
	// was handed to the OS before the "power cut"); everything still staged
	// after that is dropped on the floor, its tickets left under
	// inflightMin so the watermark never passes them.
	j.fileMu.Lock()
	for _, e := range j.take() {
		recycleFrame(e.buf)
	}
	j.fileMu.Unlock()
	if prev == nil {
		close(j.quit)
	}
	j.failWaiters(errCrashed)
	<-j.exit
	j.fileMu.Lock()
	f := j.f
	j.f, j.w = nil, nil // drop the buffer: un-synced bytes vanish
	j.fileMu.Unlock()
	err := f.Close()
	if err == nil && len(garbage) > 0 {
		err = appendGarbage(f.Name(), garbage)
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

// Compact folds the journal's history into one snapshot of its own records.
// Under fileMu it only seals the live segment, so appends go on into a fresh
// one. Then, holding no lock appends wait for, it copies what replay returns
// from the newest snapshot and the sealed segments — less the torn tails
// replay skips — into a new snapshot, every record keeping its ticket, and
// deletes the segments and snapshots the new one covers. Every record appended
// after the seal sits in a later segment at a higher ticket, which is all the
// supersession rule asks. So a compacted journal replays to the same records,
// field for field, and folds to the same History. A corrupt snapshot (data
// loss, not a torn tail) or a latched journal makes it return an error before
// the seal, changing nothing.
func (j *Journal) Compact() error {
	j.compactMu.Lock()
	defer j.compactMu.Unlock()
	snaps, err := listSnapshots(j.dir)
	if err != nil {
		return err
	}
	recs, cerr, err := readSnapshot(j.dir, snaps, 0)
	if err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	j.fileMu.Lock()
	j.mu.Lock()
	err = j.err
	j.mu.Unlock()
	sealed := j.seq
	if err == nil {
		if err = j.rotateLocked(); err != nil {
			j.fail(err) // a half-sealed journal must error loudly, not append
			j.failWaiters(err)
		}
	}
	j.fileMu.Unlock()
	if err != nil {
		return err
	}
	if j.afterSeal != nil {
		j.afterSeal()
	}
	segs, err := listSeqs(j.segDir, segPrefix, segSuffix)
	if err != nil {
		return err
	}
	for len(segs) > 0 && segs[len(segs)-1] > sealed {
		segs = segs[:len(segs)-1]
	}
	bufs, frames, err := readSegments(j.dir, segs)
	if err != nil {
		return err
	}
	recs, _, err = decodeSegments(slices.Grow(recs, frames), j.dir, segs, bufs)
	if err != nil {
		return err
	}
	var buf []byte
	for i := range recs {
		if buf, err = appendFrame(buf, &recs[i]); err != nil {
			return err
		}
	}
	// Snapshots have their own top-level seq space; supersession runs on
	// tickets, the seq only has to grow.
	base := 1
	if len(snaps) > 0 {
		base = snaps[len(snaps)-1] + 1
	}
	if err := j.installSnapshot(base, buf); err != nil {
		// The sealed segments stay on disk, so no history was lost.
		return err
	}
	removeSeqs(j.segDir, segPrefix, segSuffix, sealed+1)
	removeSeqs(j.dir, snapPrefix, snapSuffix, base)
	return nil
}

// installSnapshot writes the encoded snapshot durably: the tmp file is
// written, fsynced and closed, renamed into place, and the directory fsynced
// so the rename itself survives a power cut. Compact deletes what the
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

// Replay reads a journal directory back: the newest snapshot (if any), then
// the shard-00/ segments in sequence order, which is ticket order, less the
// records the snapshot supersedes — every one at or below its last ticket. A
// missing or empty directory replays as no records, a directory an older
// version wrote is refused with ErrLegacyFormat, and Replay never panics on
// corrupt input.
//
// Corruption is handled per layer. A corrupt record inside a segment ends
// only that segment: it is the torn tail a crashed writer leaves behind,
// and because every process incarnation appends to its own fresh segment
// (Open never reopens an old file), any later segment was written after
// the crash and is still trusted — replay skips to it and keeps going. The
// first such anomaly is reported as a typed *CorruptRecordError alongside
// the recovered records so callers can surface it and compact the torn
// segment away. A corrupt snapshot, by contrast, destroys the compacted base
// that gives the following segments meaning: replay stops there and returns
// an error with IsSnapshot() true, which callers must treat as data loss,
// not as a routine crash artifact.
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
// refusal, a snapshot read failure or a directory error is still returned as
// err; snapshot corruption is reported as the first (and only) entry of
// corrupt, with IsSnapshot() true, and ends the replay.
func ReplayAll(dir string) ([]Record, []*CorruptRecordError, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, nil, err
	}
	segs, err := listSeqs(filepath.Join(dir, segDirName), segPrefix, segSuffix)
	if err != nil {
		return nil, nil, err
	}
	// Read every segment first, so the output slice is sized once and each
	// record is decoded straight into its final slot.
	bufs, frames, err := readSegments(dir, segs)
	if err != nil {
		return nil, nil, err
	}
	out, cerr, err := readSnapshot(dir, snaps, frames)
	if err != nil {
		return nil, nil, err
	}
	if cerr != nil {
		return out, []*CorruptRecordError{cerr}, nil
	}
	return decodeSegments(out, dir, segs, bufs)
}

// readSnapshot decodes the newest of the directory's snapshots snaps into a
// slice with room for extra more records. Corruption in it comes back as cerr,
// with the records before it: the caller must treat it as data loss.
func readSnapshot(dir string, snaps []int, extra int) (out []Record, cerr *CorruptRecordError, err error) {
	var snap []byte
	var name string
	if len(snaps) > 0 {
		name = snapName(snaps[len(snaps)-1])
		if snap, err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			return nil, nil, fmt.Errorf("journal: read snapshot: %w", err)
		}
	}
	if n := countFrames(snap) + extra; n > 0 {
		out = make([]Record, 0, n)
	}
	out, err = decodeStream(out, snap, name, 0)
	if c, ok := err.(*CorruptRecordError); ok {
		return out, c, nil
	} else if err != nil {
		return nil, nil, fmt.Errorf("journal: replay %s: %w", dir, err)
	}
	return out, nil, nil
}

// readSegments reads the directory's segments segs and counts their frames.
func readSegments(dir string, segs []int) (bufs [][]byte, frames int, err error) {
	bufs = make([][]byte, len(segs))
	for i, s := range segs {
		if bufs[i], err = os.ReadFile(filepath.Join(dir, segDirName, segName(s))); err != nil {
			return nil, 0, fmt.Errorf("journal: read segment: %w", err)
		}
		frames += countFrames(bufs[i])
	}
	return bufs, frames, nil
}

// decodeSegments decodes the segments segs, read into bufs, onto snap, the
// snapshot's records, dropping every record the snapshot supersedes: those at
// or below its last ticket. A corrupt record ends only its own segment and is
// reported in corrupt.
func decodeSegments(snap []Record, dir string, segs []int, bufs [][]byte) ([]Record, []*CorruptRecordError, error) {
	minTick := uint64(0)
	if len(snap) > 0 {
		minTick = snap[len(snap)-1].Tick + 1
	}
	out := snap
	var corrupt []*CorruptRecordError
	for i, b := range bufs {
		var err error
		out, err = decodeStream(out, b, filepath.Join(segDirName, segName(segs[i])), minTick)
		if cerr, ok := err.(*CorruptRecordError); ok {
			corrupt = append(corrupt, cerr)
		} else if err != nil {
			return nil, nil, fmt.Errorf("journal: replay %s: %w", dir, err)
		}
	}
	return out, corrupt, nil
}
