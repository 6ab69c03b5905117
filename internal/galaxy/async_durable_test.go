package galaxy

import (
	"testing"
	"time"

	"gyan/internal/journal"
)

// openShardedJournal opens a journal in the production durable
// configuration.
func openShardedJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{DurableSubmits: true})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestAsyncDurableSubmitStampsTicket covers the async-durable ack path end
// to end: a submit under WithAsyncDurable returns a DurableTicket instead of
// blocking on the fsync, AwaitDurable on that ticket succeeds once the
// stripe flusher catches up, the watermark covers it, and the submit record
// is on disk at replay.
func TestAsyncDurableSubmitStampsTicket(t *testing.T) {
	dir := t.TempDir()
	j := openShardedJournal(t, dir)
	g := testGalaxy(t, WithJournal(j, "h1"))
	rs := smallReadSet(t)

	sync, err := g.Submit("racon", fastParams(), rs, SubmitOptions{DatasetName: "nfl"})
	if err != nil {
		t.Fatal(err)
	}
	if sync.DurableTicket != 0 {
		t.Fatalf("synchronous submit stamped DurableTicket %d, want 0", sync.DurableTicket)
	}
	WithAsyncDurable()(g)
	async, err := g.Submit("racon", fastParams(), rs, SubmitOptions{DatasetName: "nfl"})
	if err != nil {
		t.Fatal(err)
	}
	if async.DurableTicket == 0 {
		t.Fatal("async submit did not stamp a DurableTicket")
	}
	if err := g.AwaitDurable(async.DurableTicket); err != nil {
		t.Fatalf("AwaitDurable: %v", err)
	}
	if wm := j.Stats().Watermark; wm < async.DurableTicket {
		t.Fatalf("watermark %d below awaited ticket %d", wm, async.DurableTicket)
	}
	g.Run()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := journal.Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	submits := 0
	for _, r := range recs {
		if r.Type == journal.TypeSubmit {
			submits++
		}
	}
	if submits != 2 {
		t.Fatalf("replayed %d submit records, want 2", submits)
	}
}

// TestAsyncDurableSubmitRacesSnapshots is the -race hammer for the ticket
// stamp: Submit publishes the job and only then learns its commit ticket, so
// a reader that finds the job in the table may be cloning it while the
// submitter writes DurableTicket. One goroutine submits, one polls Jobs()
// and chases the newest ID through Job(id); the reader learns IDs by probing
// the table, never from the submitter, so no handshake hides the pair from
// the detector.
func TestAsyncDurableSubmitRacesSnapshots(t *testing.T) {
	j := openShardedJournal(t, t.TempDir())
	defer j.Close()
	g := testGalaxy(t, WithJournal(j, "h1"), WithAsyncDurable())
	rs := smallReadSet(t)

	const n = 400
	done := make(chan struct{})
	go func() {
		defer close(done)
		for next := 1; next <= n; {
			for _, job := range g.Jobs() {
				_ = job.DurableTicket
			}
			if _, ok := g.Job(next); ok {
				next++
			}
		}
	}()
	for i := 0; i < n; i++ {
		if _, err := g.Submit("seqstats", nil, rs, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	g.Run()
	for _, job := range g.Jobs() {
		if job.DurableTicket == 0 || job.State != StateOK {
			t.Fatalf("job %d: ticket %d, state %s", job.ID, job.DurableTicket, job.State)
		}
	}
}

// TestWithAsyncDurableAppliesToEverySubmit checks the engine-level option:
// with WithAsyncDurable, plain submits get tickets without opting in per
// call.
func TestWithAsyncDurableAppliesToEverySubmit(t *testing.T) {
	dir := t.TempDir()
	j := openShardedJournal(t, dir)
	g := testGalaxy(t, WithJournal(j, "h1"), WithAsyncDurable())
	defer j.Close()
	rs := smallReadSet(t)
	for i := 0; i < 3; i++ {
		job, err := g.Submit("racon", fastParams(), rs, SubmitOptions{DatasetName: "nfl"})
		if err != nil {
			t.Fatal(err)
		}
		if job.DurableTicket == 0 {
			t.Fatalf("submit %d: no DurableTicket under WithAsyncDurable", i)
		}
		if err := g.AwaitDurable(job.DurableTicket); err != nil {
			t.Fatalf("AwaitDurable: %v", err)
		}
	}
	g.Run()
}

// TestShardedCrashRequeuesWithSeniority is the sharded twin of
// TestCrashMidWorkloadRequeuesWithSeniority: the handler dies with a torn
// tail on one stripe of a sharded journal, and recovery must requeue the
// unfinished jobs at their original submission seniority from the
// ticket-merged replay.
func TestShardedCrashRequeuesWithSeniority(t *testing.T) {
	dir := t.TempDir()
	j := openShardedJournal(t, dir)
	g := testGalaxy(t, WithJournal(j, "h1"), WithLeaseTTL(10*time.Second))
	rs := smallReadSet(t)
	var jobs []*Job
	for i := 0; i < 4; i++ {
		job, err := g.Submit("racon", fastParams(), rs, SubmitOptions{
			DatasetName: "nfl",
			Delay:       time.Duration(i) * 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	g.Engine.RunUntil(45 * time.Second)
	if jobs[0].State != StateOK {
		t.Fatalf("job 1 state at crash = %s", jobs[0].State)
	}
	// Tear two stripes at once: each gets a half-record tail.
	if err := j.CrashTornShards(map[int][]byte{
		1: {0x13, 0x00, 0x00, 0x00, 0xde, 0xad},
		3: {0x21, 0x00, 0x00, 0x00, 0xbe, 0xef},
	}); err != nil {
		t.Fatal(err)
	}

	recs, rerr := replayDir(t, dir)
	if rerr == nil {
		t.Fatal("torn stripes replayed clean")
	}
	j2 := openShardedJournal(t, dir)
	defer j2.Close()
	g2 := testGalaxy(t, WithJournal(j2, "h1"), WithLeaseTTL(10*time.Second))
	rep, err := g2.Recover(recs, rerr, RecoverOptions{
		Datasets:     map[string]any{"nfl": rs},
		RestartDelay: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptTail == "" {
		t.Error("report does not surface the torn stripe")
	}
	if rep.Requeued == 0 {
		t.Fatalf("nothing requeued: %+v", rep)
	}
	// The group-commit flushers may have made some post-submit records
	// durable before the crash, so jobs recover either completed (terminal
	// state rebuilt) or requeued — note which, before running the requeue.
	requeued := make(map[int]bool)
	for _, job := range g2.Jobs() {
		if !job.Done() {
			requeued[job.ID] = true
		}
	}
	g2.Run()
	rec := g2.Jobs()
	if len(rec) != 4 {
		t.Fatalf("recovered %d jobs, want 4", len(rec))
	}
	var lastStart time.Duration
	for i, job := range rec {
		if job.State != StateOK {
			t.Fatalf("job %d finished %s: %s", job.ID, job.State, job.Info)
		}
		// Every job keeps its submission seniority; t=0 submissions requeue
		// under the 1 ns sentinel.
		want := jobs[i].Submitted
		if want == 0 && requeued[job.ID] {
			want = time.Nanosecond
		}
		if job.Submitted != want {
			t.Errorf("job %d submitted %v, want %v", job.ID, job.Submitted, want)
		}
		// Requeued jobs redispatch in ID (seniority) order.
		if requeued[job.ID] {
			if job.Started < lastStart {
				t.Errorf("job %d started %v before its senior's %v", job.ID, job.Started, lastStart)
			}
			lastStart = job.Started
		}
	}
}
