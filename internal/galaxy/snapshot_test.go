package galaxy

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gyan/internal/faults"
	"gyan/internal/journal"
	"gyan/internal/sched"
)

// Snapshot read-path tests. Jobs() serves clones of the live jobs taken under
// the engine lock; these pin the contract the /api and monitor consumers rely
// on: no torn reads under the race detector, submission-order results, clone
// isolation from live state, and kill-through-a-clone.

// TestJobsSnapshotUnderConcurrency hammers Jobs() from reader goroutines
// while submissions arrive, kills land and completions run. Run with -race:
// the point is that readers never observe an in-flight mutation.
func TestJobsSnapshotUnderConcurrency(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	const n = 16
	jobs := make([]*Job, n)
	var submits sync.WaitGroup
	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				snap := g.Jobs()
				for i, j := range snap {
					// Read every mutable field a consumer might touch.
					_ = j.State
					_ = j.Info
					_ = j.Devices
					_ = j.Failures
					_ = j.WallTime()
					if i > 0 && snap[i-1].ID >= j.ID {
						t.Errorf("snapshot out of submission order: %d before %d", snap[i-1].ID, j.ID)
						return
					}
				}
			}
		}()
	}
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
	stop.Store(true)
	readers.Wait()

	final := g.Jobs()
	if len(final) != n {
		t.Fatalf("final snapshot has %d jobs, want %d", len(final), n)
	}
	for _, j := range final[n/4:] {
		if !j.Done() {
			t.Errorf("job %d not terminal in final snapshot: %s", j.ID, j.State)
		}
	}
}

// TestJobsSnapshotIsolation checks the clones are deep enough: mutating a
// snapshot cannot reach live engine state, and a later snapshot reflects
// live progress, not the mutation.
func TestJobsSnapshotIsolation(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	if _, err := g.Submit("racon", fastParams(), rs, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	g.Run()

	snap := g.Jobs()
	if len(snap) != 1 || snap[0].State != StateOK {
		t.Fatalf("want one completed job, got %+v", snap)
	}
	// Deface the clone every way a careless caller could.
	snap[0].State = StateError
	snap[0].Info = "defaced"
	if len(snap[0].Devices) > 0 {
		snap[0].Devices[0] = 99
	}
	snap[0].Failures = append(snap[0].Failures, Failure{Msg: "fake"})

	again := g.Jobs()
	if again[0].State != StateOK || again[0].Info == "defaced" {
		t.Fatalf("snapshot mutation leaked into live state: %+v", again[0])
	}
	if len(again[0].Devices) > 0 && again[0].Devices[0] == 99 {
		t.Fatal("snapshot Devices share backing memory with live job")
	}
	if len(again[0].Failures) != 0 {
		t.Fatalf("snapshot Failures leaked into live state: %+v", again[0].Failures)
	}

	// Job is the same clone of one entry: equal to its row in Jobs(), and
	// as isolated.
	one, ok := g.Job(again[0].ID)
	if !ok || !reflect.DeepEqual(one, again[0]) {
		t.Fatalf("Job(%d) = %+v, %v; want the Jobs() entry %+v", again[0].ID, one, ok, again[0])
	}
	one.State = StateError
	if len(one.Devices) > 0 {
		one.Devices[0] = 99
	}
	one.Failures = append(one.Failures, Failure{Msg: "fake"})
	if fresh, _ := g.Job(one.ID); !reflect.DeepEqual(fresh, again[0]) {
		t.Fatalf("Job() clone mutation leaked into live state: %+v", fresh)
	}
	if j, ok := g.Job(99); ok || j != nil {
		t.Fatalf("Job(99) = %+v, %v on a one-job engine", j, ok)
	}
}

// TestKillThroughSnapshot verifies Kill resolves the live job behind a
// clone — the /api DELETE handler kills what Jobs() handed out.
func TestKillThroughSnapshot(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	if _, err := g.Submit("racon", fastParams(), rs, SubmitOptions{Delay: time.Hour}); err != nil {
		t.Fatal(err)
	}
	snap := g.Jobs()
	if len(snap) != 1 {
		t.Fatalf("want 1 job, got %d", len(snap))
	}
	g.Kill(snap[0])
	g.Run()
	final := g.Jobs()
	if final[0].State != StateError || final[0].Info != "killed by user" {
		t.Fatalf("kill through a snapshot clone did not land: %s (%s)", final[0].State, final[0].Info)
	}
	// A job value this instance never issued must be ignored.
	g.Kill(&Job{ID: 999})
	g.Kill(&Job{ID: 1, ToolID: "other-tool"})
	if got := g.Jobs()[0]; got.Info != "killed by user" {
		t.Fatalf("foreign kill mutated state: %+v", got)
	}
}

// TestSnapshotJournalIsTheFoldsInverse pins the other snapshot in this
// package: SnapshotJournal re-emits the engine's state as a minimal record
// stream, so folding the journal before compaction and after it must agree
// on everything recovery acts on — for closed trails (ok, retried,
// dead-lettered, resubmitted, killed) and open ones (running,
// parked, mid-steal, stolen away, transferred in).
func TestSnapshotJournalIsTheFoldsInverse(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	defer j.Close()
	plan := faults.NewPlan(3,
		faults.Rule{Match: faults.Match{Op: faults.OpExec, Job: 1},
			Fault: faults.Fault{Class: faults.Permanent, Msg: "ECC uncorrectable"}, Count: 1},
		faults.Rule{Match: faults.Match{Op: faults.OpExec, Job: 2},
			Fault: faults.Fault{Class: faults.Transient, Msg: "XID 79"}, Count: 1},
		faults.Rule{Match: faults.Match{Op: faults.OpExec, Job: 3},
			Fault: faults.Fault{Class: faults.Permanent, Msg: "fell off the bus"}, Count: 1},
	)
	g := schedGalaxy(t, sched.Config{},
		WithJournal(j, "h1"), WithFaultPlan(plan),
		WithRetry(faults.Backoff{MaxAttempts: 3, Base: 50 * time.Millisecond}))
	rs := smallReadSet(t)
	submit := func(params map[string]string, opts SubmitOptions) *Job {
		t.Helper()
		opts.DatasetName = "nfl"
		job, err := g.Submit("racon", params, rs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	slow := map[string]string{"scale": "0.01"}

	// Closed trails: 1 dead-letters and is resubmitted to ok, 2 retries to
	// ok, 3 stays dead-lettered, 4 holds both devices while 5 waits, 6 is
	// killed before it starts.
	revived := submit(fastParams(), SubmitOptions{})
	submit(fastParams(), SubmitOptions{})
	submit(fastParams(), SubmitOptions{})
	g.Run()
	if _, err := g.ResubmitDeadLetter(revived.ID); err != nil {
		t.Fatal(err)
	}
	submit(slow, SubmitOptions{GPUs: 2, User: "hog"})
	submit(fastParams(), SubmitOptions{Priority: 1, User: "urgent", Delay: time.Millisecond})
	g.Kill(submit(fastParams(), SubmitOptions{Delay: time.Hour}))
	g.Run()
	if revived.State != StateOK || revived.attemptBase != 1 {
		t.Fatalf("scenario did not build: job 1 %s base %d", revived.State, revived.attemptBase)
	}
	// Open trails: 7 and 8 run, 9-11 park; the two juniors are prepared for
	// h2, one of them retired; 12 arrives from h0.
	for i := 0; i < 5; i++ {
		submit(slow, SubmitOptions{})
	}
	g.Engine.RunUntil(g.Engine.Clock().Now() + 10*time.Millisecond)
	prepared := g.PrepareSteal(2, "h2", 7)
	if len(prepared) != 2 || !g.RetireSteal(prepared[0].JobID) {
		t.Fatalf("prepared %d steals, want 2 and a retire", len(prepared))
	}
	g.RegisterDataset("nfl", rs)
	if _, err := g.AcceptTransfer("h0", journal.Record{
		Type: journal.TypeSubmit, Job: 40, Tool: "racon", Params: slow, Dataset: "nfl",
		Submitted: time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	fold := func() *journal.History {
		t.Helper()
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		recs, rerr := replayDir(t, dir)
		if rerr != nil {
			t.Fatal(rerr)
		}
		return journal.Fold(recs)
	}
	before := fold()
	if err := g.SnapshotJournal(); err != nil {
		t.Fatal(err)
	}
	after := fold()

	// What recovery reads off a trail, flattened for comparison.
	type essence struct {
		Owner, Terminal, Prepared    string
		AttemptBase, Attempts, Epoch int
	}
	distil := func(tr *journal.Trail) essence {
		e := essence{Owner: tr.Owner, AttemptBase: tr.AttemptBase, Attempts: len(tr.Attempts)}
		if tr.Terminal != nil {
			e.Terminal = string(tr.Terminal.Type) + "/" + tr.Terminal.State
		}
		if tr.Prepared != nil {
			e.Prepared = fmt.Sprintf("%s/%d", tr.Prepared.Handler, tr.Prepared.Xfer)
		}
		if tr.Start != nil {
			e.Epoch = tr.Start.Epoch
		}
		return e
	}
	if len(before.Order) != 12 || !reflect.DeepEqual(before.Order, after.Order) {
		t.Fatalf("jobs before %v, after %v, want the same 12", before.Order, after.Order)
	}
	seen := make(map[essence]bool)
	for _, id := range before.Order {
		b, a := distil(before.Jobs[id]), distil(after.Jobs[id])
		if b != a {
			t.Errorf("job %d: before compaction %+v, after %+v", id, b, a)
		}
		b.Epoch = 0
		seen[b] = true
	}
	// The scenario is only worth its length if the trails really differ.
	for _, want := range []essence{
		{Owner: "h1", Terminal: "complete/ok", AttemptBase: 1, Attempts: 1},
		{Owner: "h1", Terminal: "complete/ok", Attempts: 1},
		{Owner: "h1", Terminal: "dead_letter/", Attempts: 1},
		{Owner: "h1", Terminal: "complete/ok"},
		{Owner: "h1", Terminal: "complete/error"},
		{Owner: "h1"},
		{Owner: "h1", Prepared: "h2/8"},
		{Owner: "h2"},
	} {
		if !seen[want] {
			t.Errorf("no trail folded to %+v; scenario drifted: %v", want, seen)
		}
	}
}
