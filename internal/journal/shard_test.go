package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardedRoundTripTotalOrder appends a sequential stream across a
// sharded journal and checks Replay merges the per-stripe segment files back
// into the exact submission order, carried by strictly increasing tickets.
func TestShardedRoundTripTotalOrder(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(60)
	appendAll(t, j, recs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The stripes really are separate files.
	dirs, err := listShardDirs(dir)
	if err != nil || len(dirs) != 4 {
		t.Fatalf("shard dirs = %v, err=%v, want 4", dirs, err)
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].Job != recs[i].Job {
			t.Fatalf("record %d: job %d, want %d (merge order broken)", i, got[i].Job, recs[i].Job)
		}
		if i > 0 && got[i].Tick <= got[i-1].Tick {
			t.Fatalf("record %d: tick %d not above predecessor %d", i, got[i].Tick, got[i-1].Tick)
		}
	}
}

// TestShardedCrashTornTable is the per-stripe torn-tail crash table: every
// stripe is torn independently, then two at once. Each tear models a record
// that made it partially to that stripe's segment before the power cut — a
// truncated but otherwise valid encoding. The merged replay must lose
// exactly the torn stripes' tails (one CorruptRecordError per torn stripe,
// labelled with the stripe's directory), keep every fsynced record, and
// preserve the global ticket order across the gaps.
func TestShardedCrashTornTable(t *testing.T) {
	const nshards = 4
	cases := [][]int{{0}, {1}, {2}, {3}, {1, 3}}
	for _, torn := range cases {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			dir := t.TempDir()
			j, err := Open(dir, Options{Shards: nshards})
			if err != nil {
				t.Fatal(err)
			}
			recs := testRecords(40)
			appendAll(t, j, recs)
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
			garbage := make(map[int][]byte, len(torn))
			for _, s := range torn {
				b, err := encode(Record{Type: TypeSubmit, Job: 1000 + s, Tool: "racon", Tick: 1 << 50})
				if err != nil {
					t.Fatal(err)
				}
				garbage[s] = b[:len(b)-3] // the torn half-record
			}
			if err := j.CrashTornShards(garbage); err != nil {
				t.Fatal(err)
			}
			got, corrupt, err := ReplayAll(dir)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if len(corrupt) != len(torn) {
				t.Fatalf("corrupt segments = %d, want %d (%v)", len(corrupt), len(torn), corrupt)
			}
			tornDirs := make(map[string]bool, len(torn))
			for _, s := range torn {
				tornDirs[shardDirName(s)] = true
			}
			for _, c := range corrupt {
				d := filepath.Dir(c.Segment)
				if !tornDirs[d] {
					t.Fatalf("corruption reported in %q, torn stripes were %v", c.Segment, torn)
				}
				if c.IsSnapshot() {
					t.Fatalf("segment tear misreported as snapshot corruption: %v", c)
				}
			}
			// Every fsynced record survives, in the original order; the torn
			// tails (jobs 1000+) must not resurface.
			if len(got) != len(recs) {
				t.Fatalf("replayed %d records, want %d", len(got), len(recs))
			}
			for i := range got {
				if got[i].Job != recs[i].Job {
					t.Fatalf("record %d: job %d, want %d", i, got[i].Job, recs[i].Job)
				}
				if i > 0 && got[i].Tick <= got[i-1].Tick {
					t.Fatalf("record %d: tick order broken", i)
				}
			}
		})
	}
}

// TestShardedStagedLossIsPerStripe crashes a sharded group-commit journal
// with records parked in the staging rings and checks the loss accounting:
// everything fsynced before the hold survives on every stripe, everything
// staged behind the held flushers is gone, and the survivors still replay in
// global ticket order.
func TestShardedStagedLossIsPerStripe(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Shards: 4, DurableSubmits: true})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(20)
	appendAll(t, j, recs)
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	j.HoldFlush(hold)
	var staged []uint64
	for i := 0; i < 16; i++ {
		tick, err := j.AppendAsync(Record{
			Type: TypeSubmit, Job: 100 + i, Tool: "racon", Handler: "h1",
		})
		if err != nil {
			t.Fatal(err)
		}
		staged = append(staged, tick)
	}
	wm := j.Stats().Watermark
	for _, tk := range staged {
		if tk <= wm {
			t.Fatalf("staged ticket %d already at or below watermark %d", tk, wm)
		}
	}
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}
	close(hold)
	got, _, err := ReplayAll(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want the %d fsynced ones only", len(got), len(recs))
	}
	for i := range got {
		if got[i].Job >= 100 {
			t.Fatalf("staged record %d resurfaced after crash", got[i].Job)
		}
		if i > 0 && got[i].Tick <= got[i-1].Tick {
			t.Fatalf("record %d: tick order broken", i)
		}
	}
}

// TestAsyncDurableCrashBetweenStageAndFlush covers the async-durable ack
// contract: a submit staged but not yet flushed returns a ticket immediately,
// AwaitDurable on that ticket must never report success, the crash fails the
// waiter with an error, and the record is absent at replay.
func TestAsyncDurableCrashBetweenStageAndFlush(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Shards: 2, DurableSubmits: true})
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
// test: under concurrent async appenders and per-stripe flushers the
// watermark only ever grows and never runs ahead of the ticket counter; a
// crash mid-stream then proves it never ran ahead of the fsynced prefix —
// every ticket at or below the last observed watermark is in the replay.
// The appenders alternate durable-class submits with start records, which
// nothing ever waits on, so the scan is held to both.
func TestWatermarkMonotonicUnderConcurrentFlushers(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Shards: 4, DurableSubmits: true})
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
	j2, err := Open(dir2, Options{Shards: 4, DurableSubmits: true})
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

// TestShardFileIsTicketOrdered pins what one staging queue a shard buys: its
// segment files hold its records in strictly increasing ticket order, with
// no sort on the write path. Concurrent durable, async-durable and
// non-durable appenders all target one 16-ID window (one shard), a bound of
// 4 parks them on a full queue behind a held flusher, small segments force
// rotations, and the files are decoded directly — Replay would sort.
func TestShardFileIsTicketOrdered(t *testing.T) {
	dir := t.TempDir()
	const bound = 4
	j := gcOpenCap(t, dir, Options{Shards: 2, DurableSubmits: true, segmentBytes: 1024}, bound)
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
				job := shardWindow + (p*each+i)%shardWindow
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
	for deadline := time.Now().Add(5 * time.Second); j.Stats().Shards[1].Staged < bound; {
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

	total := 0
	for shard := 0; shard < 2; shard++ {
		sdir := filepath.Join(dir, shardDirName(shard))
		segs, err := listSeqs(sdir, segPrefix, segSuffix)
		if err != nil {
			t.Fatal(err)
		}
		if shard == 1 && len(segs) < 2 {
			t.Fatalf("shard 1 wrote %d segments, want rotations", len(segs))
		}
		last := uint64(0)
		for _, seq := range segs {
			name := filepath.Join(shardDirName(shard), segName(seq))
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			recs, cerr := decodeStream(nil, b, name, 0)
			if cerr != nil {
				t.Fatalf("%s: %v", name, cerr)
			}
			for _, r := range recs {
				if r.Tick <= last {
					t.Fatalf("%s: tick %d after %d — shard file out of ticket order", name, r.Tick, last)
				}
				last = r.Tick
				total++
			}
		}
	}
	if total != producers*each {
		t.Fatalf("decoded %d records, want %d", total, producers*each)
	}
}

// TestShardedSnapshotCompaction snapshots a sharded journal and checks the
// compaction sweep: pre-snapshot stripe segments are deleted, replay returns
// the snapshot records followed by post-snapshot appends, and nothing the
// snapshot superseded resurfaces from any stripe.
func TestShardedSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Shards: 4, segmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, testRecords(40))
	snap := []Record{
		{Type: TypeSubmit, Job: 1, Tool: "racon", Handler: "h1"},
		{Type: TypeSubmit, Job: 2, Tool: "bonito", Handler: "h1"},
	}
	if err := j.WriteSnapshot(snap); err != nil {
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
	// Compaction really removed the superseded stripe segments: each stripe
	// keeps only its post-snapshot segment.
	dirs, err := listShardDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range dirs {
		segs, err := listSeqs(filepath.Join(dir, sd), segPrefix, segSuffix)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != 1 {
			t.Fatalf("stripe %s: %d segments after compaction, want 1", sd, len(segs))
		}
	}
}

// TestShardedReopenKeepsTicketOrder closes and reopens a sharded journal and
// checks the second incarnation's records replay strictly after the first's:
// the incarnation epoch in the ticket high bits keeps the merge total even
// though the in-memory counter restarted.
func TestShardedReopenKeepsTicketOrder(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	first := testRecords(20)
	appendAll(t, j, first)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	second := make([]Record, 20)
	for i := range second {
		second[i] = Record{Type: TypeSubmit, Job: 100 + i, Tool: "bonito", Handler: "h1"}
	}
	appendAll(t, j2, second)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != len(first)+len(second) {
		t.Fatalf("replayed %d records, want %d", len(got), len(first)+len(second))
	}
	for i := range got {
		want := 0
		if i < len(first) {
			want = first[i].Job
		} else {
			want = second[i-len(first)].Job
		}
		if got[i].Job != want {
			t.Fatalf("record %d: job %d, want %d (incarnation order broken)", i, got[i].Job, want)
		}
		if i > 0 && got[i].Tick <= got[i-1].Tick {
			t.Fatalf("record %d: tick %d not above predecessor %d", i, got[i].Tick, got[i-1].Tick)
		}
	}
}

// TestLegacyUpgradeEpochStrictlyIncreasing reopens a directory seeded with
// legacy top-level segments as a sharded journal across several crash
// incarnations. The legacy wal-* files pin the historical max sequence high;
// each sharded incarnation must still raise it (its shard segments open above
// the global max), so every Open issues a strictly higher incarnation epoch
// and no two incarnations ever share commit tickets — the merged replay must
// order the incarnations' records without ticket collisions.
func TestLegacyUpgradeEpochStrictlyIncreasing(t *testing.T) {
	dir := t.TempDir()
	// Seed a flat-layout journal with enough segments to pin maxSeq well
	// above the shard count.
	legacy := testRecords(12)
	for i, r := range legacy {
		r.Tick = 1<<tickEpochShift + uint64(i+1)
		writeFlat(t, dir, segName(i+1), []Record{r})
	}

	var epochs []uint64
	total := len(legacy)
	for inc := 0; inc < 3; inc++ {
		j, err := Open(dir, Options{Shards: 4})
		if err != nil {
			t.Fatalf("incarnation %d: %v", inc, err)
		}
		epochs = append(epochs, j.tick.Load()>>tickEpochShift)
		for i := 0; i < 5; i++ {
			if err := j.Append(Record{
				Type: TypeSubmit, Job: 1000*(inc+1) + i, Tool: "racon", Handler: "h1",
			}); err != nil {
				t.Fatalf("incarnation %d append: %v", inc, err)
			}
			total++
		}
		if err := j.Sync(); err != nil {
			t.Fatalf("incarnation %d sync: %v", inc, err)
		}
		// Crash, not Close: the reused-epoch bug only bites when the next
		// Open recomputes the epoch from whatever the dead process left.
		if err := j.Crash(); err != nil {
			t.Fatalf("incarnation %d crash: %v", inc, err)
		}
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i] <= epochs[i-1] {
			t.Fatalf("incarnation %d reused epoch: %v (tickets would collide across crashes)", i, epochs)
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
		if got[i].Tick <= got[i-1].Tick && got[i].Tick != 0 {
			t.Fatalf("record %d: tick %d not above predecessor %d (duplicate or interleaved epoch)",
				i, got[i].Tick, got[i-1].Tick)
		}
	}
}

// TestCrashRacingSnapshotDoesNotPanic races CrashTorn against WriteSnapshot:
// the snapshot seals every shard's segment (s.f = nil) before reopening, and
// a crash landing in that window must model process death — mark the shards
// dead, skip the missing handles — not panic on a nil file. Either side may
// report an error; the journal just has to stay replayable.
func TestCrashRacingSnapshotDoesNotPanic(t *testing.T) {
	for iter := 0; iter < 40; iter++ {
		dir := filepath.Join(t.TempDir(), "j")
		j, err := Open(dir, Options{Shards: 4, DurableSubmits: true})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, j, testRecords(8))
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = j.WriteSnapshot([]Record{{Type: TypeSubmit, Job: 1, Tool: "racon", Handler: "h1"}})
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

// TestShardedLockExcludesSecondOpen makes sure the flock guard still covers
// the sharded layout: the LOCK file stays top-level, so a second opener is
// rejected whatever the shard count.
func TestShardedLockExcludesSecondOpen(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var le *LockedError
	if _, err := Open(dir, Options{Shards: 4}); !errors.As(err, &le) {
		t.Fatalf("second open: err=%v, want LockedError", err)
	}
}

// TestShardStatsBreakdown checks Stats carries the per-stripe mirror the
// scrape exposes: every stripe reports its own appends and the aggregates
// sum over them.
func TestShardStatsBreakdown(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// Job IDs cluster onto shards in shardWindow-sized runs, so covering
	// all 4 shards takes at least 4 windows' worth of jobs.
	appendAll(t, j, testRecords(4*shardWindow))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("Stats.Shards has %d entries, want 4", len(st.Shards))
	}
	sum := 0
	for i, ss := range st.Shards {
		if ss.Shard != i {
			t.Fatalf("shard %d reports index %d", i, ss.Shard)
		}
		if ss.Appends == 0 {
			t.Fatalf("shard %d saw no appends; striping is broken", i)
		}
		if ss.Segments == 0 {
			t.Fatalf("shard %d reports no live segments", i)
		}
		sum += ss.Appends
	}
	if sum != st.Appends || st.Appends != 4*shardWindow {
		t.Fatalf("aggregate appends %d, per-shard sum %d, want %d", st.Appends, sum, 4*shardWindow)
	}
	if st.Tick == 0 || st.Watermark == 0 {
		t.Fatalf("tick/watermark not exposed: %+v", st)
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

// TestShardedAdaptiveRoundTrip runs the full adaptive group-commit pipeline
// end to end and checks nothing is lost: a mixed synchronous/asynchronous
// workload over a sharded journal replays complete and ordered.
func TestShardedAdaptiveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{
		Shards: 4, DurableSubmits: true,
	})
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
