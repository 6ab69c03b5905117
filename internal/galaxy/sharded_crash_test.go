package galaxy

import (
	"testing"
	"time"

	"gyan/internal/journal"
)

// openDurableJournal opens a journal in the production durable
// configuration.
func openDurableJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestShardedCrashRequeuesWithSeniority is the torn-tail twin of
// TestCrashMidWorkloadRequeuesWithSeniority: the handler dies with a torn
// tail on the journal's live segment, and recovery must requeue the
// unfinished jobs at their original submission seniority from the replay.
func TestShardedCrashRequeuesWithSeniority(t *testing.T) {
	dir := t.TempDir()
	j := openDurableJournal(t, dir)
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
	// The live segment gets a half-record tail.
	if err := j.CrashTorn([]byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}

	recs, rerr := replayDir(t, dir)
	if rerr == nil {
		t.Fatal("torn segment replayed clean")
	}
	j2 := openDurableJournal(t, dir)
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
		t.Error("report does not surface the torn segment")
	}
	if rep.Requeued == 0 {
		t.Fatalf("nothing requeued: %+v", rep)
	}
	// The group-commit flusher may have made some post-submit records
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
