package galaxy

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gyan/internal/faults"
	"gyan/internal/journal"
	"gyan/internal/sched"
)

// These tests exist for the race detector: submission and kill may arrive
// from goroutines other than the one driving the engine (the HTTP API does
// exactly that), so dispatch, completion and kill paths must be safe under
// concurrent entry. Run with `go test -race`.

func TestConcurrentSubmitAndKill(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	const n = 12
	jobs := make([]*Job, n)
	var submits sync.WaitGroup
	for i := 0; i < n; i++ {
		submits.Add(1)
		go func(i int) {
			defer submits.Done()
			j, err := g.Submit("seqstats", nil, rs, SubmitOptions{
				User:  fmt.Sprintf("user%d", i%3),
				Delay: time.Duration(i) * time.Millisecond,
			})
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = j
		}(i)
	}
	submits.Wait()

	// Kill a few jobs from another goroutine while the engine drains.
	var kills sync.WaitGroup
	kills.Add(1)
	go func() {
		defer kills.Done()
		for _, j := range jobs[:n/4] {
			g.Kill(j)
		}
	}()
	g.Run()
	kills.Wait()
	g.Run() // drain redispatch events a late kill may have scheduled

	for i, j := range jobs[n/4:] {
		if j.State != StateOK {
			t.Errorf("job %d finished %s: %s", i+n/4, j.State, j.Info)
		}
	}
}

func TestConcurrentSubmitWithScheduler(t *testing.T) {
	g := testGalaxy(t, WithScheduler(sched.New(sched.Config{Backfill: true})))
	rs := smallReadSet(t)
	const n = 6
	jobs := make([]*Job, n)
	var submits sync.WaitGroup
	for i := 0; i < n; i++ {
		submits.Add(1)
		go func(i int) {
			defer submits.Done()
			j, err := g.Submit("racon", fastParams(), rs, SubmitOptions{
				User: fmt.Sprintf("user%d", i%2),
			})
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = j
		}(i)
	}
	submits.Wait()
	g.Run()
	for i, j := range jobs {
		if j.State != StateOK {
			t.Errorf("job %d finished %s: %s", i, j.State, j.Info)
		}
	}
	if m := g.SchedulerMetrics(); m.Started != n {
		t.Errorf("scheduler started %d of %d jobs", m.Started, n)
	}
}

// TestConcurrentSubmitKillRetryUnderFaults drives the full fault machinery —
// crash injection, retry with backoff, quarantine — while submissions and
// kills arrive from other goroutines. The point is the race detector: retry
// re-entry (startJob from a timer event) must not race with external Kill or
// Submit. Every surviving job must still reach a terminal state.
func TestConcurrentSubmitKillRetryUnderFaults(t *testing.T) {
	plan := faults.NewPlan(11,
		faults.Rule{
			Match: faults.Match{Op: faults.OpCrash, Devices: []int{0}},
			Fault: faults.Fault{Class: faults.Transient, Msg: "XID 79: GPU fell off the bus"},
			Count: 4,
		},
		faults.Rule{
			Match: faults.Match{Op: faults.OpExec, Job: 3},
			Fault: faults.Fault{Class: faults.Permanent, Msg: "driver wedged"},
			Count: 1,
		},
	)
	g := testGalaxy(t,
		WithFaultPlan(plan),
		WithRetry(faults.Backoff{MaxAttempts: 3, Base: 50 * time.Millisecond}),
		WithQuarantine(faults.NewQuarantine(3, time.Second)),
		WithJobTimeout(time.Minute),
	)
	rs := smallReadSet(t)
	const n = 12
	jobs := make([]*Job, n)
	var submits sync.WaitGroup
	for i := 0; i < n; i++ {
		submits.Add(1)
		go func(i int) {
			defer submits.Done()
			j, err := g.Submit("racon", fastParams(), rs, SubmitOptions{
				User:  fmt.Sprintf("user%d", i%3),
				Delay: time.Duration(i) * 10 * time.Millisecond,
			})
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = j
		}(i)
	}
	submits.Wait()

	// Kill a few jobs from another goroutine while the engine retries the
	// crashed ones.
	var kills sync.WaitGroup
	kills.Add(1)
	go func() {
		defer kills.Done()
		for _, j := range jobs[:n/4] {
			g.Kill(j)
		}
	}()
	g.Run()
	kills.Wait()
	g.Run() // drain retry/redispatch events a late kill may have scheduled

	for i, j := range jobs[n/4:] {
		if !j.Done() {
			t.Errorf("job %d never reached a terminal state: %s (%s)", i+n/4, j.State, j.Info)
		}
		if j.State == StateError {
			t.Errorf("job %d fell back to unclassified error: %s", i+n/4, j.Info)
		}
	}
	// The permanent fault targeted job ID 3; whoever drew that ID must be
	// dead-lettered — unless a concurrent kill landed first.
	for _, j := range jobs {
		if j != nil && j.ID == 3 && j.Info != "killed by user" && j.State != StateDeadLetter {
			t.Errorf("job 3 hit a permanent fault but ended %s: %s", j.State, j.Info)
		}
	}
}

// TestSubmitRacingCompactionLosesNothing races durable submitters against a
// loop of SnapshotJournal calls. A submit record staged before a compaction
// lives in a segment the compaction deletes or still waits in the queue, so
// the snapshot must carry it either way. That holds because the journal's
// snapshotLocked takes the staged batch and reserves the snapshot's tickets
// in one queue critical section: each record is in the batch it copies or is
// staged after it, at a ticket above the snapshot's. A later snapshot would
// carry a job the race dropped, so the journal is checked after every round,
// when the round's last snapshot is the newest: the replay must hold exactly
// one submit record, and a folded trail, for every job acknowledged so far.
func TestSubmitRacingCompactionLosesNothing(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	defer j.Close()
	g := testGalaxy(t, WithJournal(j, "h1"))
	rs := smallReadSet(t)
	const rounds, submitters, each = 10, 4, 5
	var acked []int
	for r := 0; r < rounds; r++ {
		ids := make(chan int, submitters*each)
		var submits sync.WaitGroup
		for s := 0; s < submitters; s++ {
			submits.Add(1)
			go func() {
				defer submits.Done()
				for i := 0; i < each; i++ {
					job, err := g.Submit("seqstats", nil, rs, SubmitOptions{DatasetName: "nfl"})
					if err != nil {
						t.Error(err)
						return
					}
					ids <- job.ID
				}
			}()
		}
		done := make(chan struct{})
		snapErr := make(chan error, 1)
		go func() {
			defer close(snapErr)
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := g.SnapshotJournal(); err != nil {
					snapErr <- err
					return
				}
			}
		}()
		submits.Wait()
		close(done)
		if err := <-snapErr; err != nil {
			t.Fatal(err)
		}
		close(ids)
		for id := range ids {
			acked = append(acked, id)
		}

		recs, err := journal.Replay(dir)
		if err != nil {
			t.Fatal(err)
		}
		submitsOf := map[int]int{}
		for _, rec := range recs {
			if rec.Type == journal.TypeSubmit {
				submitsOf[rec.Job]++
			}
		}
		hist := journal.Fold(recs)
		for _, id := range acked {
			if n := submitsOf[id]; n != 1 {
				t.Errorf("round %d: job %d has %d submit records in the replay, want 1", r, id, n)
			}
			if tr := hist.Jobs[id]; tr == nil || tr.Submit.Type != journal.TypeSubmit {
				t.Errorf("round %d: job %d acknowledged but has no submit trail", r, id)
			}
		}
		if want := (r + 1) * submitters * each; len(acked) != want || len(hist.Jobs) != want {
			t.Fatalf("round %d: acknowledged %d jobs, replay folds %d trails; want %d of each",
				r, len(acked), len(hist.Jobs), want)
		}
	}
}

// TestConcurrentSubmitsShareAnFsync holds the journal's flusher while eight
// durable submits arrive from their own goroutines: every one of them must
// stage its record while the others wait for the disk, so releasing the
// flusher acknowledges all eight with one fsync (two if a drain straddles the
// release). A submitter that held the engine lock across its wait would stage
// alone, and the bounded wait below fails instead of hanging.
func TestConcurrentSubmitsShareAnFsync(t *testing.T) {
	j := openTestJournal(t, t.TempDir())
	defer j.Close()
	g := testGalaxy(t, WithJournal(j, "h1"))
	rs := smallReadSet(t)
	before := j.Stats()
	hold := make(chan struct{})
	j.HoldFlush(hold)
	const n = 8
	var submits sync.WaitGroup
	for i := 0; i < n; i++ {
		submits.Add(1)
		go func() {
			defer submits.Done()
			if _, err := g.Submit("seqstats", nil, rs, SubmitOptions{}); err != nil {
				t.Error(err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	staged := j.Stats().Tick - before.Tick
	for staged < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		staged = j.Stats().Tick - before.Tick
	}
	close(hold)
	submits.Wait()
	if staged < n {
		t.Fatalf("only %d records staged while the flusher was held; want at least %d (submitters serialized on their fsync)", staged, n)
	}
	if syncs := j.Stats().Syncs - before.Syncs; syncs > 2 {
		t.Errorf("%d concurrent submits took %d fsyncs; want at most 2", n, syncs)
	}
}
