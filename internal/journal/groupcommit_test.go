package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// Staged-pipeline contract tests. The properties pinned here are the ones the
// galaxy dispatch path depends on: a durable append is on disk before it
// returns, per-job record order survives concurrent staging, and a crash
// between stage and flush loses whole batches from the tail — never the
// middle, never reordered.

func gcOpen(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	return gcOpenCap(t, dir, opts, defaultStageCap)
}

// gcOpenCap opens a journal with a tiny staging bound, so a test can fill
// the staging queue.
func gcOpenCap(t *testing.T, dir string, opts Options, stageCap int) *Journal {
	t.Helper()
	j, err := open(dir, opts, stageCap)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestFlushErrorLatchesJournal forces a flusher write/fsync failure (the
// segment file is closed out from under the flusher, the ENOSPC stand-in)
// with a record staged async-durable. The failed batch is already drained
// from the staging queue, so its ticket can never reach disk: the watermark must not
// pass it, AwaitDurable must fail rather than report durability, and the
// journal must latch — further appends are rejected with the I/O error
// instead of silently staging into a dead pipeline.
func TestFlushErrorLatchesJournal(t *testing.T) {
	dir := t.TempDir()
	j := gcOpen(t, dir, Options{})
	hold := make(chan struct{})
	j.HoldFlush(hold)
	tick, err := j.AppendAsync(Record{Type: TypeSubmit, Job: 7, Tool: "racon", Handler: "h1"})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the live segment: the parked flusher's next write+fsync
	// pass fails the way a full or dying disk would.
	j.fileMu.Lock()
	j.f.Close()
	j.fileMu.Unlock()
	close(hold)

	waitErr := make(chan error, 1)
	go func() { waitErr <- j.AwaitDurable(tick) }()
	select {
	case err := <-waitErr:
		if err == nil {
			t.Fatalf("AwaitDurable reported durability for ticket %d after the flush failed", tick)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AwaitDurable still parked after flush failure")
	}
	if wm := j.Stats().Watermark; wm >= tick {
		t.Fatalf("watermark %d passed ticket %d whose batch never reached disk", wm, tick)
	}
	// The journal is latched by the time the waiter failed (fail runs before
	// failWaiters): new appends surface the failure instead of staging into
	// a pipeline that can no longer make them durable.
	if err := j.Append(Record{Type: TypeSubmit, Job: 8, Tool: "racon", Handler: "h1"}); err == nil {
		t.Fatal("append accepted after a flusher write error")
	}
	// The failed journal still holds its files and the flock: Close reports
	// the failure and releases them.
	if err := j.Close(); err == nil {
		t.Fatal("Close hid the flush failure")
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after a failed journal's Close: %v", err)
	}
	j2.Close()
}

func TestGroupCommitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := gcOpen(t, dir, Options{})
	recs := testRecords(50)
	appendAll(t, j, recs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].Job != recs[i].Job || got[i].At != recs[i].At {
			t.Fatalf("record %d out of order: got job %d at %v", i, got[i].Job, got[i].At)
		}
	}
}

// TestGroupCommitDurableAckIsOnDisk crashes the journal immediately after a
// durable append returns; the acknowledged record must survive replay even
// though nothing ever called Sync or Close.
func TestGroupCommitDurableAckIsOnDisk(t *testing.T) {
	dir := t.TempDir()
	j := gcOpen(t, dir, Options{})
	acked := Record{Type: TypeSubmit, At: time.Second, Job: 7, Tool: "racon", Handler: "h1"}
	if err := j.Append(acked); err != nil {
		t.Fatal(err)
	}
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != 1 || got[0].Job != 7 {
		t.Fatalf("acked durable submit lost: replayed %d records %+v", len(got), got)
	}
}

// TestGroupCommitCrashBetweenStageAndFlush parks the flusher, stages a batch
// behind it, and crashes: everything staged-but-unflushed must vanish as a
// unit (clean tail), everything flushed before the hold must survive, and a
// durable waiter parked on the dropped batch must be unblocked with an error
// — not acknowledged, not left hanging.
func TestGroupCommitCrashBetweenStageAndFlush(t *testing.T) {
	dir := t.TempDir()
	j := gcOpen(t, dir, Options{})

	// Batch 1 flushes normally (the durable append waits for its fsync).
	if err := j.Append(Record{Type: TypeSubmit, At: time.Second, Job: 1, Tool: "racon"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeStart, At: 2 * time.Second, Job: 1, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}

	// Park the flusher, then stage batch 2 behind it: a non-durable record
	// for job 1 and a durable submit for job 2 whose Append blocks.
	hold := make(chan struct{})
	j.HoldFlush(hold)
	if err := j.Append(Record{Type: TypeComplete, At: 3 * time.Second, Job: 1, State: "ok"}); err != nil {
		t.Fatal(err)
	}
	durableErr := make(chan error, 1)
	go func() {
		durableErr <- j.Append(Record{Type: TypeSubmit, At: 4 * time.Second, Job: 2, Tool: "racon"})
	}()
	// The durable append must be parked on the watermark, not
	// acknowledged while its batch sits in the staging queue.
	select {
	case err := <-durableErr:
		t.Fatalf("durable append returned (%v) while the flusher was held", err)
	case <-time.After(50 * time.Millisecond):
	}

	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := <-durableErr; !errors.Is(err, errCrashed) {
		t.Fatalf("dropped durable waiter got %v, want errCrashed", err)
	}

	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	// Whole batch or clean tail: exactly the two pre-hold records, in order.
	if len(got) != 2 || got[0].Type != TypeSubmit || got[1].Type != TypeStart {
		t.Fatalf("replay saw %d records %+v, want the 2 flushed ones", len(got), got)
	}
	for _, r := range got {
		if r.Job == 2 {
			t.Fatalf("staged-but-unflushed submit for job 2 leaked to disk")
		}
	}
}

// TestGroupCommitPerJobOrderUnderConcurrency hammers the staging queue from
// many goroutines, each writing its own job's strictly increasing history,
// and verifies replay preserves every per-job order — the property Replay's
// last-record-wins folding needs.
func TestGroupCommitPerJobOrderUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	j := gcOpenCap(t, dir, Options{}, 8)
	const jobs, steps = 24, 40
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for id := 1; id <= jobs; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := j.Append(Record{Type: TypeSubmit, At: 0, Job: id, Tool: "racon"}); err != nil {
				errs <- err
				return
			}
			for s := 1; s < steps; s++ {
				if err := j.Append(Record{Type: TypeStart, At: time.Duration(s) * time.Millisecond, Job: id, Epoch: s}); err != nil {
					errs <- err
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != jobs*steps {
		t.Fatalf("replayed %d records, want %d", len(got), jobs*steps)
	}
	lastEpoch := make(map[int]int)
	for i, r := range got {
		switch r.Type {
		case TypeSubmit:
			if prev, seen := lastEpoch[r.Job]; seen {
				t.Fatalf("record %d: job %d submit after epoch %d", i, r.Job, prev)
			}
			lastEpoch[r.Job] = 0
		case TypeStart:
			prev, seen := lastEpoch[r.Job]
			if !seen || r.Epoch != prev+1 {
				t.Fatalf("record %d: job %d history reordered (epoch %d after %d)", i, r.Job, r.Epoch, prev)
			}
			lastEpoch[r.Job] = r.Epoch
		}
	}
}

// TestGroupCommitSyncDrainsStaged holds the flusher, stages records, and
// checks Sync drains them to disk synchronously.
func TestGroupCommitSyncDrainsStaged(t *testing.T) {
	dir := t.TempDir()
	j := gcOpen(t, dir, Options{})
	hold := make(chan struct{})
	j.HoldFlush(hold)
	for i := 0; i < 5; i++ {
		if err := j.Append(Record{Type: TypeStart, At: time.Duration(i), Job: 1, Epoch: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Appends != 5 {
		t.Fatalf("Sync flushed %d staged appends, want 5", st.Appends)
	}
	close(hold)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := Replay(dir); err != nil || len(got) != 5 {
		t.Fatalf("replay after sync: %d records, err %v", len(got), err)
	}
}

// TestGroupCommitAppendAfterClose verifies late appenders are rejected, not
// stranded, and that a closed and a crashed journal answer with the same
// sentinel.
func TestGroupCommitAppendAfterClose(t *testing.T) {
	for name, end := range map[string]func(*Journal) error{
		"close": (*Journal).Close,
		"crash": (*Journal).Crash,
	} {
		j := gcOpen(t, t.TempDir(), Options{})
		if err := j.Append(Record{Type: TypeSubmit, At: time.Second, Job: 1, Tool: "racon"}); err != nil {
			t.Fatal(err)
		}
		if err := end(j); err != nil {
			t.Fatal(err)
		}
		late := Record{Type: TypeSubmit, At: 2 * time.Second, Job: 2, Tool: "racon"}
		if err := j.Append(late); !errors.Is(err, errClosed) {
			t.Fatalf("Append after %s: %v, want errClosed", name, err)
		}
		if _, err := j.AppendAsync(late); !errors.Is(err, errClosed) {
			t.Fatalf("AppendAsync after %s: %v, want errClosed", name, err)
		}
	}
}

// TestGroupCommitBackpressure fills a tiny queue behind a held flusher and
// checks producers block (bounded memory) rather than queueing unboundedly,
// then drain once the flusher resumes.
func TestGroupCommitBackpressure(t *testing.T) {
	dir := t.TempDir()
	j := gcOpenCap(t, dir, Options{}, 2)
	hold := make(chan struct{})
	j.HoldFlush(hold)

	const n = 10
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		at := time.Duration(i)
		go func() {
			done <- j.Append(Record{Type: TypeStart, At: at, Job: 1, Epoch: 1})
		}()
	}
	// With a bound of 2 on the queue, at most 2 appends can be staged;
	// the rest must be parked in the backpressure wait.
	time.Sleep(50 * time.Millisecond)
	completed := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			completed++
			continue
		default:
		}
		break
	}
	if completed > 2 {
		t.Fatalf("%d appends completed with a full ring and a held flusher, want <= 2", completed)
	}
	close(hold)
	for i := completed; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := Replay(dir); err != nil || len(got) != n {
		t.Fatalf("replay: %d records, err %v, want %d", len(got), err, n)
	}
}

// TestGroupCommitSnapshotSupersedesStaged compacts with records staged
// behind a held flusher: the snapshot holds what was on disk at the seal, and
// the staged records, drained after it into the fresh segment at tickets
// above the snapshot's, are not lost when compaction deletes the old segments.
func TestGroupCommitSnapshotSupersedesStaged(t *testing.T) {
	dir := t.TempDir()
	j := gcOpen(t, dir, Options{})
	for i := 1; i <= 3; i++ {
		if err := j.Append(Record{Type: TypeSubmit, At: time.Duration(i) * time.Second, Job: i, Tool: "racon"}); err != nil {
			t.Fatal(err)
		}
	}
	hold := make(chan struct{})
	j.HoldFlush(hold)
	if _, err := j.AppendAsync(Record{Type: TypeComplete, At: 4 * time.Second, Job: 1, State: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	close(hold)
	j.HoldFlush(nil)
	if err := j.Append(Record{Type: TypeSubmit, At: 5 * time.Second, Job: 9, Tool: "racon"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := ReplayBytes(snap); err != nil || len(recs) != 3 {
		t.Fatalf("snapshot holds %d records (err %v), want the 3 submits on disk at the seal", len(recs), err)
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	want := []struct {
		typ Type
		job int
	}{{TypeSubmit, 1}, {TypeSubmit, 2}, {TypeSubmit, 3}, {TypeComplete, 1}, {TypeSubmit, 9}}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records %+v, want %d", len(got), got, len(want))
	}
	for i, w := range want {
		if got[i].Type != w.typ || got[i].Job != w.job {
			t.Fatalf("record %d: got %s/%d, want %s/%d", i, got[i].Type, got[i].Job, w.typ, w.job)
		}
	}
}

// TestGroupCommitTwoProducersShareFsyncs pins group commit for two sync-ack producers
// on a fresh journal, the shape of two concurrent submitters: each stages its
// next record while the other's fsync runs, so every drain finds exactly one
// record. A flusher that learned only from batch sizes never saw the second
// producer and paid one fsync per record for the journal's whole life; two
// producers must share them.
func TestGroupCommitTwoProducersShareFsyncs(t *testing.T) {
	j := gcOpen(t, t.TempDir(), Options{})
	defer j.Close()
	const per = 300
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				if err := j.Append(Record{Type: TypeSubmit, Job: p*per + i, Tool: "racon"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	st := j.Stats()
	if st.FlushDelay == 0 {
		t.Skipf("an fsync takes %v here: too fast for the flusher to wait at all", st.FsyncEWMA)
	}
	if st.Syncs > 3*2*per/4 {
		t.Fatalf("%d fsyncs for %d durable appends from two producers, want at most 3 in 4", st.Syncs, 2*per)
	}
}

// TestGroupCommitTwoProducersAfterALoneRecord is the interleaving a loaded
// host gives TestGroupCommitTwoProducersShareFsyncs now and then, made
// certain: the journal's first fsync carries one record with nothing staged
// behind it, and only then do the two producers start. The controller must
// still learn the second producer from the batches that follow.
func TestGroupCommitTwoProducersAfterALoneRecord(t *testing.T) {
	j := gcOpen(t, t.TempDir(), Options{})
	defer j.Close()
	if err := j.Append(Record{Type: TypeSubmit, Job: 1, Tool: "racon"}); err != nil {
		t.Fatal(err)
	}
	const per = 300
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				if err := j.Append(Record{Type: TypeSubmit, Job: 1 + p*per + i, Tool: "racon"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	st := j.Stats()
	if st.FlushDelay == 0 {
		t.Skipf("an fsync takes %v here: too fast for the flusher to wait at all", st.FsyncEWMA)
	}
	if st.Syncs > 1+3*2*per/4 {
		t.Fatalf("%d fsyncs for 1 + %d durable appends from two producers, want at most 3 in 4 after the first", st.Syncs, 2*per)
	}
}

// TestGroupCommitStats pins the batching itself: durable appends staged
// while the flusher is busy (here, held) must share fsyncs instead of paying
// one each. On a fast disk the flusher can drain record-by-record, so the
// hold gate builds the backlog deterministically.
func TestGroupCommitStats(t *testing.T) {
	dir := t.TempDir()
	j := gcOpen(t, dir, Options{})
	hold := make(chan struct{})
	j.HoldFlush(hold)
	const n = 64
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.Append(Record{Type: TypeSubmit, At: time.Duration(i), Job: i, Tool: "racon"}); err != nil {
				panic(fmt.Sprintf("append: %v", err))
			}
		}(i)
	}
	// Wait until every append is parked in the staging queue, then release the
	// flusher: the whole backlog drains as a handful of batches.
	for deadline := time.Now().Add(5 * time.Second); ; {
		staged := j.Stats().Staged
		if staged == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d appends staged", staged, n)
		}
		time.Sleep(time.Millisecond)
	}
	close(hold)
	wg.Wait()
	st := j.Stats()
	if st.Appends != n {
		t.Fatalf("appends = %d, want %d", st.Appends, n)
	}
	if st.Syncs >= n/4 {
		t.Fatalf("group commit did not batch: %d fsyncs for %d durable appends", st.Syncs, n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
