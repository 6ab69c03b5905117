package journal

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAsyncDurableCrashBetweenStageAndFlush covers the async-durable ack
// contract: a submit staged but not yet flushed returns a ticket immediately,
// AwaitDurable on that ticket must never report success, the crash fails the
// waiter with an error, and the record is absent at replay.
func TestAsyncDurableCrashBetweenStageAndFlush(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	j.HoldFlush(hold)
	tick, err := j.AppendAsync(Record{Type: TypeSubmit, Job: 7, Tool: "racon", Handler: "h1"})
	if err != nil {
		t.Fatal(err)
	}
	if tick == 0 {
		t.Fatal("AppendAsync returned ticket 0")
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- j.AwaitDurable(tick) }()
	select {
	case err := <-waitErr:
		t.Fatalf("AwaitDurable returned %v with the flush held", err)
	case <-time.After(20 * time.Millisecond):
	}
	if wm := j.Stats().Watermark; wm >= tick {
		t.Fatalf("watermark %d covers unflushed ticket %d", wm, tick)
	}
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}
	close(hold)
	select {
	case err := <-waitErr:
		if err == nil {
			t.Fatal("AwaitDurable reported success for a record the crash dropped")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AwaitDurable still parked after crash")
	}
	got, _, err := ReplayAll(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	for _, r := range got {
		if r.Job == 7 {
			t.Fatal("dropped async submit resurfaced at replay")
		}
	}
}

// TestWatermarkMonotonicUnderConcurrentFlushers is the watermark property
// test: under concurrent async appenders draining through the one flusher
// the watermark only ever grows and never runs ahead of the ticket counter;
// a crash mid-stream then proves it never ran ahead of the fsynced prefix —
// every ticket at or below the last observed watermark is in the replay.
// The appenders alternate durable-class submits with start records, which
// nothing ever waits on, so the scan is held to both.
func TestWatermarkMonotonicUnderConcurrentFlushers(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	issued := make(map[uint64]bool)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				typ := TypeSubmit
				if i%2 == 1 {
					typ = TypeStart
				}
				tick, err := j.AppendAsync(Record{
					Type: typ, Job: g*100000 + i, Tool: "racon", Handler: "h1",
				})
				if err != nil {
					return
				}
				mu.Lock()
				issued[tick] = true
				mu.Unlock()
			}
		}(g)
	}
	// Sample the watermark concurrently: monotonic, never above the ticket
	// counter.
	deadline := time.Now().Add(150 * time.Millisecond)
	last := uint64(0)
	for time.Now().Before(deadline) {
		wm := j.Stats().Watermark
		if wm < last {
			t.Errorf("watermark went backwards: %d -> %d", last, wm)
			break
		}
		last = wm
		if tick := j.Stats().Tick; wm > tick {
			t.Errorf("watermark %d above ticket counter %d", wm, tick)
			break
		}
	}
	wm := j.Stats().Watermark
	stop.Store(true)
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	got, _, err := ReplayAll(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	durable := make(map[uint64]bool, len(got))
	for _, r := range got {
		durable[r.Tick] = true
	}
	mu.Lock()
	defer mu.Unlock()
	missing := 0
	for tick := range issued {
		if tick <= wm && !durable[tick] {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d tickets at or below watermark %d missing from replay", missing, wm)
	}
	// Sanity: after a full Sync the watermark must catch the ticket counter
	// exactly (fresh journal, no crash).
	dir2 := t.TempDir()
	j2, err := Open(dir2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j2, testRecords(30))
	if err := j2.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := j2.Stats(); st.Watermark != st.Tick {
		t.Fatalf("after Sync watermark %d != tick %d", st.Watermark, st.Tick)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentFilesAreTicketOrdered pins what the one staging queue buys: the
// segment files hold the records in strictly increasing ticket order, with
// no sort on the write path. Concurrent durable, async-durable and
// non-durable appenders share the queue, a bound of 4 parks them on a full
// queue behind a held flusher, small segments force rotations, and the
// files are decoded directly, the way Replay reads them.
func TestSegmentFilesAreTicketOrdered(t *testing.T) {
	dir := t.TempDir()
	const bound = 4
	j := gcOpenCap(t, dir, Options{segmentBytes: 1024}, bound)
	hold := make(chan struct{})
	j.HoldFlush(hold)
	const producers, each = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				job := 1 + (p*each+i)%16
				var err error
				switch i % 3 {
				case 0: // durable: waits for its batch's fsync
					err = j.Append(Record{Type: TypeSubmit, Job: job, Tool: "racon", Handler: "h1"})
				case 1:
					_, err = j.AppendAsync(Record{Type: TypeSubmit, Job: job, Tool: "racon", Handler: "h1"})
				default:
					err = j.Append(Record{Type: TypeStart, Job: job, Epoch: i})
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(p)
	}
	for deadline := time.Now().Add(5 * time.Second); j.Stats().Staged < bound; {
		if time.Now().After(deadline) {
			t.Fatal("the queue never filled behind the held flusher")
		}
		time.Sleep(time.Millisecond)
	}
	close(hold)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	sdir := filepath.Join(dir, segDirName)
	segs, err := listSeqs(sdir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("the journal wrote %d segments, want rotations", len(segs))
	}
	total := 0
	last := uint64(0)
	for _, seq := range segs {
		name := filepath.Join(segDirName, segName(seq))
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := decodeStream(nil, b, name, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range recs {
			if r.Tick <= last {
				t.Fatalf("%s: tick %d after %d — segment file out of ticket order", name, r.Tick, last)
			}
			last = r.Tick
			total++
		}
	}
	if total != producers*each {
		t.Fatalf("decoded %d records, want %d", total, producers*each)
	}
}

// TestRotatedSnapshotCompaction snapshots a journal whose segments rotated
// and checks the compaction sweep: pre-snapshot segments are deleted,
// replay returns the snapshot records followed by post-snapshot appends,
// and nothing the snapshot superseded resurfaces.
func TestRotatedSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{segmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, testRecords(40))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("no rotation before the snapshot: %+v", st)
	}
	snap := []Record{
		{Type: TypeSubmit, Job: 1, Tool: "racon", Handler: "h1"},
		{Type: TypeSubmit, Job: 2, Tool: "bonito", Handler: "h1"},
	}
	if err := j.writeSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	post := Record{Type: TypeSubmit, Job: 3, Tool: "racon", Handler: "h1"}
	if err := j.Append(post); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	wantJobs := []int{1, 2, 3}
	if len(got) != len(wantJobs) {
		t.Fatalf("replayed %d records, want %d: %+v", len(got), len(wantJobs), got)
	}
	for i, want := range wantJobs {
		if got[i].Job != want {
			t.Fatalf("record %d: job %d, want %d", i, got[i].Job, want)
		}
	}
	// Compaction really removed the superseded segments: only the
	// post-snapshot segment is left.
	segs, err := listSeqs(filepath.Join(dir, segDirName), segPrefix, segSuffix)
	if err != nil || len(segs) != 1 {
		t.Fatalf("%d segments after compaction (err %v), want 1", len(segs), err)
	}
}

// TestEpochStrictlyIncreasing runs several incarnations over one directory —
// each rotates through small segments, one snapshots, and they die by Close,
// Crash and a torn crash in turn. Every Open must issue an incarnation epoch
// above every sequence number already on disk, hence above every earlier
// epoch, so no two incarnations share a ticket and the whole history replays
// in strictly increasing ticket order.
func TestEpochStrictlyIncreasing(t *testing.T) {
	dir := t.TempDir()
	var epochs []uint64
	total := 0
	for inc := 0; inc < 4; inc++ {
		next, err := nextSeq(dir)
		if err != nil {
			t.Fatal(err)
		}
		j, err := Open(dir, Options{segmentBytes: 256})
		if err != nil {
			t.Fatalf("incarnation %d: %v", inc, err)
		}
		epoch := j.Stats().Tick >> tickEpochShift
		if epoch < uint64(next) || len(epochs) > 0 && epoch <= epochs[len(epochs)-1] {
			t.Fatalf("incarnation %d: epoch %d after %v, with sequence %d next on disk", inc, epoch, epochs, next)
		}
		epochs = append(epochs, epoch)
		if inc == 1 {
			if err := j.writeSnapshot(testRecords(2)); err != nil {
				t.Fatal(err)
			}
			total = 2
		}
		for i := 0; i < 12; i++ {
			if err := j.Append(Record{Type: TypeSubmit, Job: 1000*(inc+1) + i, Tool: "racon", Handler: "h1"}); err != nil {
				t.Fatalf("incarnation %d append: %v", inc, err)
			}
			total++
		}
		if st := j.Stats(); st.Rotations == 0 {
			t.Fatalf("incarnation %d never rotated: %+v", inc, st)
		}
		switch inc % 3 {
		case 0:
			err = j.Close()
		case 1:
			err = j.Crash()
		default:
			err = j.CrashTorn([]byte{0x40, 0, 0, 0, 0xde, 0xad})
		}
		if err != nil {
			t.Fatalf("incarnation %d: %v", inc, err)
		}
	}
	got, _, err := ReplayAll(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != total {
		t.Fatalf("replayed %d records, want %d", len(got), total)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Tick <= got[i-1].Tick {
			t.Fatalf("record %d: tick %#x not above predecessor %#x (reused or interleaved epoch)",
				i, got[i].Tick, got[i-1].Tick)
		}
	}
}

// TestCrashRacingSnapshotDoesNotPanic races CrashTorn against writeSnapshot:
// the snapshot seals the live segment (j.f = nil) before reopening, and a
// crash landing in that window must model process death — skip the missing
// handle — not panic on a nil file. Either side may report an error; the
// journal just has to stay replayable.
func TestCrashRacingSnapshotDoesNotPanic(t *testing.T) {
	for iter := 0; iter < 40; iter++ {
		dir := filepath.Join(t.TempDir(), "j")
		j, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, j, testRecords(8))
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = j.writeSnapshot([]Record{{Type: TypeSubmit, Job: 1, Tool: "racon", Handler: "h1"}})
		}()
		go func() {
			defer wg.Done()
			_ = j.CrashTorn([]byte{0xde, 0xad, 0xbe, 0xef})
		}()
		wg.Wait()
		if _, _, err := ReplayAll(dir); err != nil {
			t.Fatalf("iter %d: replay after crash/snapshot race: %v", iter, err)
		}
	}
}

// TestSnapshotRacingAppendsKeepsLaterRecords takes snapshots — 50 of one
// chosen record and whatever is staged, and 10 by Compact, each a copy of the
// whole journal so far — while four producers append as fast as they can. Replay drops every segment record below the newest snapshot's first
// ticket, so a record the snapshot does not cover must never land in a live
// segment with a lower ticket: it would be acked and then lost. A snapshot
// takes the queue and reserves its tickets in one critical section; one that
// drained first and reserved later would let a producer stage in between.
func TestSnapshotRacingAppendsKeepsLaterRecords(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rounds int
		snap   func(j *Journal, i int) error
	}{
		{"writeSnapshot", 50, func(j *Journal, i int) error {
			return j.writeSnapshot([]Record{{Type: TypeSubmit, Job: 100 + i, Tool: "racon", Handler: "h1"}})
		}},
		{"Compact", 10, func(j *Journal, _ int) error { return j.Compact() }},
	} {
		t.Run(tc.name, func(t *testing.T) { snapshotsRacingAppends(t, tc.rounds, tc.snap) })
	}
}

func snapshotsRacingAppends(t *testing.T, rounds int, snapshot func(j *Journal, i int) error) {
	dir := t.TempDir()
	j := gcOpen(t, dir, Options{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := j.AppendAsync(Record{Type: TypeStart, Job: 1 + p, Epoch: i}); err != nil {
					errs <- err
					return
				}
			}
		}(p)
	}
	for i := 0; i < rounds; i++ {
		if err := snapshot(j, i); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, err := listSeqs(dir, snapPrefix, snapSuffix)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot on disk (err %v)", err)
	}
	name := snapName(snaps[len(snaps)-1])
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := decodeStream(nil, b, name, 0)
	if err != nil || len(snap) == 0 {
		t.Fatalf("%s: %d records (err %v), want some", name, len(snap), err)
	}
	first := snap[0].Tick
	segs, err := listSeqs(filepath.Join(dir, segDirName), segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, seq := range segs {
		name := filepath.Join(segDirName, segName(seq))
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := decodeStream(nil, b, name, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range recs {
			if r.Tick < first {
				t.Fatalf("%s: job %d tick %#x below the newest snapshot's first ticket %#x — replay drops it", name, r.Job, r.Tick, first)
			}
		}
		live += len(recs)
	}
	if live == 0 {
		t.Fatal("no record landed after the last snapshot; the race never ran")
	}
}

// TestStatsCountsSegmentsAndStaged checks Stats carries what the scrape
// exposes beside the totals: the live segment count, and the records staged
// behind a held flusher, which drain to zero once it runs.
func TestStatsCountsSegmentsAndStaged(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{segmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendAll(t, j, testRecords(40))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Appends != 40 || st.Staged != 0 {
		t.Fatalf("after Sync: appends %d, staged %d, want 40 and 0", st.Appends, st.Staged)
	}
	if st.Segments != st.Rotations+1 || st.Segments < 2 {
		t.Fatalf("%d live segments after %d rotations, want one more than the rotations", st.Segments, st.Rotations)
	}
	if st.Tick == 0 || st.Watermark != st.Tick {
		t.Fatalf("tick/watermark not exposed: %+v", st)
	}
	hold := make(chan struct{})
	j.HoldFlush(hold)
	stageAll(t, j, testRecords(3))
	if st := j.Stats(); st.Staged != 3 || st.Watermark >= st.Tick {
		t.Fatalf("behind a held flusher: staged %d, watermark %d, tick %d", st.Staged, st.Watermark, st.Tick)
	}
	close(hold)
	j.HoldFlush(nil)
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Staged != 0 || st.Appends != 43 {
		t.Fatalf("after release: staged %d, appends %d, want 0 and 43", st.Staged, st.Appends)
	}
}

// TestAdaptiveControllerConverges drives the controller directly: the flush
// deadline must track half the observed fsync cost (negligible on a fast
// disk, bounded on a slow one) and the batch target must track the batch
// average.
func TestAdaptiveControllerConverges(t *testing.T) {
	var c adaptiveCtl
	for i := 0; i < 32; i++ {
		c.observe(4, 50*time.Microsecond)
	}
	if d := c.flushDelay(); d > 25*time.Microsecond {
		t.Fatalf("fast fsyncs: flush delay %v, want <= half the 50µs fsync", d)
	}
	if c.paceWorthwhile() != true {
		t.Fatal("multi-record batch history should make pacing worthwhile")
	}
	for i := 0; i < 64; i++ {
		c.observe(32, 10*time.Millisecond)
	}
	d := c.flushDelay()
	if d == 0 || d > adaptiveMaxDelay {
		t.Fatalf("slow fsyncs: flush delay %v, want in (0, %v]", d, adaptiveMaxDelay)
	}
	if bt := c.batchTarget(1024); bt < 32 {
		t.Fatalf("slow fsyncs: batch target %d, want >= observed batch 32", bt)
	}
	if bt := c.batchTarget(16); bt > 16 {
		t.Fatalf("batch target %d exceeds ring capacity 16", bt)
	}
}

// TestAdaptiveControllerForgetsTheFirstBatch holds the pacing decision to
// the recent batches, not to the first one: a journal whose first fsync
// carried a lone record learns a second producer's batches of two within a
// few fsyncs, and one whose first batch was two stops waiting once a lone
// producer's batches of one follow.
func TestAdaptiveControllerForgetsTheFirstBatch(t *testing.T) {
	var c adaptiveCtl
	c.observe(1, time.Millisecond)
	for i := 0; i < 4; i++ {
		c.observe(2, time.Millisecond)
	}
	if !c.paceWorthwhile() {
		t.Fatalf("batch EWMA %d/%d after a lone record and four batches of two: pacing off", c.batchEWMA, batchScale)
	}
	c = adaptiveCtl{}
	c.observe(2, time.Millisecond)
	for i := 0; i < 4; i++ {
		c.observe(1, time.Millisecond)
	}
	if c.paceWorthwhile() {
		t.Fatalf("batch EWMA %d/%d after a batch of two and four lone records: pacing on", c.batchEWMA, batchScale)
	}
}

// TestAdaptiveControllerWaitsWhereWaitsPay holds the wait decision to what
// waits gather: with batches of two behind it the flusher waits while its
// waits catch records, drains eagerly once they catch none (records staged
// without an ack wait, say) but for one probe every waitProbe drains, and
// waits again once a probe catches one.
func TestAdaptiveControllerWaitsWhereWaitsPay(t *testing.T) {
	var c adaptiveCtl
	for i := 0; i < 8; i++ {
		c.observe(2, time.Millisecond)
	}
	waits := func(drains int) int {
		n := 0
		for i := 0; i < drains; i++ {
			if c.shouldWait(1) {
				n++
			}
		}
		return n
	}
	if n := waits(waitProbe); n != 1 {
		t.Fatalf("no wait measured yet: %d waits in %d drains, want the one probe", n, waitProbe)
	}
	c.observeWait(1)
	if n := waits(10); n != 10 {
		t.Fatalf("waits gather a record each: %d waits in 10 drains, want every one", n)
	}
	for i := 0; i < 8; i++ {
		c.observeWait(0)
	}
	if n := waits(4 * waitProbe); n != 4 {
		t.Fatalf("waits gather nothing: %d waits in %d drains, want one probe every %d", n, 4*waitProbe, waitProbe)
	}
	c.observeWait(1)
	if !c.shouldWait(1) {
		t.Fatalf("gain EWMA %d/%d after a probe caught a record: no wait", c.gainEWMA, batchScale)
	}
}

// TestAdaptiveRoundTrip runs the full adaptive group-commit pipeline
// end to end and checks nothing is lost: a mixed synchronous/asynchronous
// workload from eight concurrent appenders replays complete and ordered.
func TestAdaptiveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var tornDown atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				job := g*1000 + i
				var err error
				if i%2 == 0 {
					err = j.Append(Record{Type: TypeSubmit, Job: job, Tool: "racon", Handler: "h1"})
				} else {
					_, err = j.AppendAsync(Record{Type: TypeSubmit, Job: job, Tool: "racon", Handler: "h1"})
				}
				if err != nil {
					tornDown.Add(1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := tornDown.Load(); n != 0 {
		t.Fatalf("%d appenders hit errors", n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != 8*50 {
		t.Fatalf("replayed %d records, want %d", len(got), 8*50)
	}
	seen := make(map[int]bool, len(got))
	for i, r := range got {
		if seen[r.Job] {
			t.Fatalf("job %d replayed twice", r.Job)
		}
		seen[r.Job] = true
		if i > 0 && got[i].Tick <= got[i-1].Tick {
			t.Fatalf("record %d: tick order broken", i)
		}
	}
	_ = os.RemoveAll(dir)
}
