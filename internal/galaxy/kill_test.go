package galaxy

import (
	"errors"
	"strings"
	"testing"
	"time"

	"gyan/internal/journal"
	"gyan/internal/sched"
)

func TestKillRunningJobFreesDevices(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	job, err := g.Submit("racon", map[string]string{"scale": "0.05"}, rs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Kill mid-run: the job's modeled duration is many seconds; schedule
	// the kill well inside it.
	g.Engine.After(2*time.Second, func(time.Duration) { g.Kill(job) })
	g.Run()

	if job.State != StateError || job.Info != "killed by user" {
		t.Fatalf("killed job state %s (%s)", job.State, job.Info)
	}
	if job.Finished != 2*time.Second {
		t.Errorf("killed at %v, want 2s", job.Finished)
	}
	for _, d := range g.Cluster.Devices() {
		if d.ProcessCount() != 0 {
			t.Errorf("device %d still has processes after kill", d.Minor())
		}
		if got := d.UsedMemoryBytes() / (1 << 20); got != 63 {
			t.Errorf("device %d holds %d MiB after kill", d.Minor(), got)
		}
	}
}

func TestKillReleasesSlotForQueuedJob(t *testing.T) {
	g := New(nil, WithJobConf(slottedConf(t, 2)))
	if err := g.RegisterDefaultTools(); err != nil {
		t.Fatal(err)
	}
	rs := smallReadSet(t)
	params := map[string]string{"scale": "0.05"}
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := g.Submit("racon", params, rs,
			SubmitOptions{Delay: time.Duration(i) * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// Kill the first running job early; the queued third job must then
	// get its slot and complete.
	g.Engine.After(time.Second, func(time.Duration) { g.Kill(jobs[0]) })
	g.Run()
	if jobs[0].State != StateError {
		t.Fatalf("killed job state %s", jobs[0].State)
	}
	for _, j := range jobs[1:] {
		if j.State != StateOK {
			t.Fatalf("job %d finished %s: %s", j.ID, j.State, j.Info)
		}
	}
	if jobs[2].Started >= jobs[2].Finished {
		t.Error("queued job never ran after the kill freed a slot")
	}
}

func TestKillQueuedJobNeverStarts(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	job, err := g.Submit("racon", fastParams(), rs,
		SubmitOptions{Delay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	g.Engine.After(time.Second, func(time.Duration) { g.Kill(job) })
	g.Run()
	if job.State != StateError || job.PID != 0 {
		t.Fatalf("queued kill: state %s, pid %d", job.State, job.PID)
	}
}

func TestKillFinishedJobIsNoOp(t *testing.T) {
	g := testGalaxy(t)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("job state %s", job.State)
	}
	finished := job.Finished
	g.Kill(job)
	if job.State != StateOK || job.Finished != finished {
		t.Fatal("Kill mutated a finished job")
	}
	g.Kill(nil) // must not panic
}

func TestKillRetractsFutureDeviceWork(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	job, err := g.Submit("racon", map[string]string{"scale": "0.05"}, rs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Engine.After(2*time.Second, func(time.Duration) { g.Kill(job) })
	g.Run()

	// No device may report kernel activity after the kill instant.
	for _, d := range g.Cluster.Devices() {
		for _, span := range d.BusySpans() {
			if span.End > 2*time.Second {
				t.Errorf("device %d busy span %v-%v survives the kill at 2s",
					d.Minor(), span.Start, span.End)
			}
		}
		if u := d.UtilizationOver(3*time.Second, 10*time.Second); u != 0 {
			t.Errorf("device %d utilization %.1f%% after kill", d.Minor(), u)
		}
	}
}

// stealVictim builds a journaled, scheduler-backed handler h1 with four slow
// racon jobs — one running, three parked — and prepares the youngest for a
// steal by h2. It returns the engine, its journal directory and the prepared
// job.
func stealVictim(t *testing.T) (*Galaxy, string, *Job) {
	t.Helper()
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	t.Cleanup(func() { j.Close() })
	g := schedGalaxy(t, sched.Config{}, WithJournal(j, "h1"))
	rs := smallReadSet(t)
	for i := 0; i < 4; i++ {
		if _, err := g.Submit("racon", map[string]string{"scale": "0.01"}, rs, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	g.Engine.RunUntil(g.Engine.Clock().Now() + 10*time.Millisecond)
	prepared := g.PrepareSteal(1, "h2", 1, nil)
	if len(prepared) != 1 {
		t.Fatalf("prepared %d steals, want 1", len(prepared))
	}
	job := g.jobs[prepared[0].JobID]
	if job.State != StatePrepared {
		t.Fatalf("job %d is %s after PrepareSteal", job.ID, job.State)
	}
	return g, dir, job
}

// trailOf syncs the handler's journal and returns job id's records in
// stream order, failing the test on every trail of the journal that holds a
// record the lifecycle refused.
func trailOf(t *testing.T, g *Galaxy, dir string, id int) []journal.Record {
	t.Helper()
	if err := g.journal.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, _ := replayDir(t, dir)
	for jid, tr := range journal.Fold(recs).Jobs {
		if len(tr.Illegal) > 0 {
			t.Errorf("job %d's trail folds to %s, refusing %+v", jid, tr.State, tr.Illegal)
		}
	}
	var out []journal.Record
	for _, r := range recs {
		if r.Job == id {
			out = append(out, r)
		}
	}
	return out
}

// TestKillRefusedWhileStealPrepared is the kill that raced a steal's
// accept: a kill between PrepareSteal and RetireSteal used to end the job
// "killed by user" and journal a complete, after which the retire still
// handed it to the thief, so the thief ran the job the user killed. The
// accept outranks the kill: the kill is refused as retryable, the job ends
// stolen, and its trail closes with the retire alone and folds clean.
func TestKillRefusedWhileStealPrepared(t *testing.T) {
	g, dir, job := stealVictim(t)
	killErr := g.Kill(job)
	retired := g.RetireSteal(job.ID)
	trail := trailOf(t, g, dir, job.ID)
	if !errors.Is(killErr, ErrStealInFlight) {
		t.Fatalf("kill of a prepared job: %v, want ErrStealInFlight", killErr)
	}
	if !retired {
		t.Fatal("the thief's accept was refused after the kill")
	}
	if job.State != StateStolen || job.Info != `stolen by handler "h2"` {
		t.Fatalf("job %d ended %s (%s), want stolen by h2", job.ID, job.State, job.Info)
	}
	for _, r := range trail {
		if r.Type == journal.TypeComplete || r.Type == journal.TypeDeadLetter {
			t.Errorf("job %d's trail holds a %s record (%s) beside its retire", job.ID, r.Type, r.Msg)
		}
	}
	if err := g.Kill(job); !errors.Is(err, ErrStolen) || !strings.Contains(err.Error(), `"h2"`) {
		t.Errorf("kill of a stolen job: %v, want ErrStolen naming h2", err)
	}
}

// TestKillAfterAbortedStealRunsNothing is the kill that raced a steal's
// abort: a kill of a prepared job used to end it, and the abort then put it
// back in the queue, where it started and ran to ok. Now the kill is refused
// while the steal is in flight and lands once the abort has requeued the job,
// which never starts, and the journal folds clean.
func TestKillAfterAbortedStealRunsNothing(t *testing.T) {
	g, dir, job := stealVictim(t)
	killErr := g.Kill(job)
	aborted := g.AbortSteal(job.ID, "thief never accepted the transfer")
	lateErr := g.Kill(job)
	g.Run()
	trail := trailOf(t, g, dir, job.ID)
	if !errors.Is(killErr, ErrStealInFlight) {
		t.Fatalf("kill of a prepared job: %v, want ErrStealInFlight", killErr)
	}
	if !aborted {
		t.Fatal("the abort was refused")
	}
	if lateErr != nil {
		t.Fatalf("kill after the abort: %v", lateErr)
	}
	if job.State != StateError || job.Info != "killed by user" {
		t.Fatalf("job %d ended %s (%s), want error killed by user", job.ID, job.State, job.Info)
	}
	var starts, terminals int
	for _, r := range trail {
		switch r.Type {
		case journal.TypeStart:
			starts++
		case journal.TypeComplete, journal.TypeDeadLetter:
			terminals++
		}
	}
	if starts != 0 || terminals != 1 {
		t.Errorf("job %d's trail holds %d start and %d terminal records, want 0 and 1", job.ID, starts, terminals)
	}
}
