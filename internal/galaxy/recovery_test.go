package galaxy

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gyan/internal/faults"
	"gyan/internal/journal"
	"gyan/internal/sched"
)

// openTestJournal opens a journal in a fresh temp dir with durable submits,
// the configuration gyan-server runs with.
func openTestJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// replayDir replays a journal directory, failing the test on non-corruption
// errors.
func replayDir(t *testing.T, dir string) ([]journal.Record, error) {
	t.Helper()
	recs, err := journal.Replay(dir)
	if err != nil {
		var cerr *journal.CorruptRecordError
		if !asCorrupt(err, &cerr) {
			t.Fatalf("replay: %v", err)
		}
	}
	return recs, err
}

// The three paths a mapped job takes to its launch, each journaling to j as
// handler h1: straight through, behind a destination that admits two jobs at a
// time, and through the batch scheduler's queue (two devices).
func directPath(t *testing.T, j *journal.Journal) *Galaxy {
	return testGalaxy(t, WithJournal(j, "h1"))
}

func slotsPath(t *testing.T, j *journal.Journal) *Galaxy {
	return testGalaxy(t, WithJobConf(slottedConf(t, 2)), WithJournal(j, "h1"))
}

func schedulerPath(t *testing.T, j *journal.Journal) *Galaxy {
	return schedGalaxy(t, sched.Config{}, WithJournal(j, "h1"))
}

// writeJournal writes the records the JSON payloads decode to through a
// fresh directory's journal, in order, tickets restamped — so a test can
// recover records no current writer produces (retired kinds and fields). The
// payloads are test data only: replay reads nothing but binary records.
func writeJournal(t *testing.T, payloads []string) string {
	t.Helper()
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	for _, payload := range payloads {
		var rec journal.Record
		if err := json.Unmarshal([]byte(payload), &rec); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func asCorrupt(err error, out **journal.CorruptRecordError) bool {
	c, ok := err.(*journal.CorruptRecordError)
	if ok {
		*out = c
	}
	return ok
}

func TestRecoverRebuildsTerminalState(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	plan := faults.NewPlan(1, faults.Rule{
		Match: faults.Match{Op: faults.OpExec, Job: 2},
		Fault: faults.Fault{Class: faults.Permanent, Msg: "device retired"},
	})
	g := testGalaxy(t, WithJournal(j, "h1"), WithFaultPlan(plan),
		WithRetry(faults.Backoff{MaxAttempts: 3, Base: time.Second}))
	rs := smallReadSet(t)
	ok, err := g.Submit("racon", fastParams(), rs, SubmitOptions{DatasetName: "nfl", User: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	dead, err := g.Submit("racon", fastParams(), rs, SubmitOptions{DatasetName: "nfl"})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if ok.State != StateOK || dead.State != StateDeadLetter {
		t.Fatalf("pre-crash states: %s / %s", ok.State, dead.State)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, rerr := replayDir(t, dir)
	if rerr != nil {
		t.Fatalf("clean journal replayed with error: %v", rerr)
	}
	j2 := openTestJournal(t, dir)
	defer j2.Close()
	g2 := testGalaxy(t, WithJournal(j2, "h1"))
	rep, err := g2.Recover(recs, rerr, RecoverOptions{
		Datasets:     map[string]any{"nfl": rs},
		RestartDelay: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 || rep.DeadLettered != 1 || rep.Requeued != 0 {
		t.Fatalf("report = %+v", rep)
	}
	jobs := g2.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(jobs))
	}
	r1, r2 := jobs[0], jobs[1]
	if r1.State != StateOK || r1.User != "alice" || r1.ToolID != "racon" {
		t.Fatalf("recovered job 1 = state %s user %s tool %s", r1.State, r1.User, r1.ToolID)
	}
	if r1.Finished != ok.Finished || r1.Submitted != ok.Submitted {
		t.Errorf("recovered timestamps fin=%v sub=%v, want fin=%v sub=%v",
			r1.Finished, r1.Submitted, ok.Finished, ok.Submitted)
	}
	if r2.State != StateDeadLetter || len(r2.Failures) != len(dead.Failures) {
		t.Fatalf("recovered dead-letter: state %s, %d failures (want %d)",
			r2.State, len(r2.Failures), len(dead.Failures))
	}
	if g2.LastRecovery() != rep {
		t.Error("LastRecovery does not return the report")
	}
}

func TestCrashMidWorkloadRequeuesWithSeniority(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	g := testGalaxy(t, WithJournal(j, "h1"))
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
	// The cut: the four sync-acked submits are on disk, and with the
	// flusher held nothing journaled after them ever is — the crash loses
	// job 1's whole run, completion included.
	j.HoldFlush(make(chan struct{}))
	// Kill the handler mid-workload: the first job has finished, later
	// ones are still queued behind their delays.
	g.Engine.RunUntil(45 * time.Second)
	if jobs[0].State != StateOK {
		t.Fatalf("job 1 state at crash = %s", jobs[0].State)
	}
	if err := j.CrashTorn([]byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}

	recs, rerr := replayDir(t, dir)
	if rerr == nil {
		t.Fatal("torn tail replayed clean")
	}
	j2 := openTestJournal(t, dir)
	defer j2.Close()
	g2 := testGalaxy(t, WithJournal(j2, "h1"))
	rep, err := g2.Recover(recs, rerr, RecoverOptions{
		Datasets:     map[string]any{"nfl": rs},
		RestartDelay: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptTail == "" {
		t.Error("report does not surface the torn tail")
	}
	if rep.Requeued == 0 {
		t.Fatalf("nothing requeued: %+v", rep)
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
		// t=0 submissions recover as the 1 ns seniority sentinel; any later
		// submission must keep its exact original time.
		want := jobs[i].Submitted
		if want == 0 {
			want = time.Nanosecond
		}
		if job.Submitted != want {
			t.Errorf("job %d submitted %v, want %v", job.ID, job.Submitted, want)
		}
		// Requeued jobs redispatch in ID (seniority) order: start times are
		// non-decreasing even though parallel GPUs may finish out of order.
		if job.Started < lastStart {
			t.Errorf("job %d started %v before its senior's %v", job.ID, job.Started, lastStart)
		}
		lastStart = job.Started
	}
}

// TestLockHolderAdoptsDeadHandlersJobs is gyan-server's failover on one
// directory: handler a journals a queued job — on a wall clock, the way
// gyan-server once stamped its heartbeats — and is killed; handler b takes
// the directory's lock and recovers with gyan-server's options. Holding the
// lock proves a dead, so b adopts the job and runs it: nothing a left behind
// can strand it queued on a journal no other handler can open.
func TestLockHolderAdoptsDeadHandlersJobs(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	a := testGalaxy(t, WithJournal(j, "a"), WithWallClock(time.Now))
	rs := smallReadSet(t)
	if _, err := a.Submit("racon", fastParams(), rs, SubmitOptions{DatasetName: "nfl"}); err != nil {
		t.Fatal(err)
	}
	a.Engine.RunUntil(0) // submit journaled, job still queued
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}

	j2 := openTestJournal(t, dir)
	recs, rerr := replayDir(t, dir)
	b := testGalaxy(t, WithJournal(j2, "b"))
	rep, err := b.Recover(recs, rerr, RecoverOptions{
		Datasets: map[string]any{"nfl": rs}, RestartDelay: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adopted != 1 || rep.Requeued != 1 || rep.Orphaned != 0 {
		t.Fatalf("recovery adopted=%d requeued=%d orphaned=%d, want 1/1/0", rep.Adopted, rep.Requeued, rep.Orphaned)
	}
	if rj := rep.Jobs[0]; rj.Action != "adopted" || rj.Owner != "b" {
		t.Fatalf("job disposition %+v, want adopted by b", rj)
	}
	b.Run()
	if got := b.Jobs()[0]; got.State != StateOK {
		t.Fatalf("adopted job finished %s: %s", got.State, got.Info)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, rerr = replayDir(t, dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if tr := journal.Fold(recs).Jobs[1]; tr.Owner != "b" || tr.From != "a" || tr.State != StateOK {
		t.Fatalf("journaled trail owner %q from %q state %s, want b/a/ok", tr.Owner, tr.From, tr.State)
	}
}

// TestRecoverKeepsAStolenJob recovers a journal in which a steal was
// retired: the job is the thief's, so recovery keeps it stolen, owned by the
// thief, and never runs it. Its trail used to fold to an open one (no
// terminal, no prepare, no start), so it came back queued, was adopted back
// from the thief and ran to ok here while the thief owned it.
func TestRecoverKeepsAStolenJob(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	g := schedGalaxy(t, sched.Config{}, WithJournal(j, "h1"))
	rs := smallReadSet(t)
	for i := 0; i < 5; i++ {
		if _, err := g.Submit("racon", map[string]string{"scale": "0.01"}, rs, SubmitOptions{DatasetName: "nfl"}); err != nil {
			t.Fatal(err)
		}
	}
	g.Engine.RunUntil(g.Engine.Clock().Now() + 10*time.Millisecond)
	prepared := g.PrepareSteal(1, "h2", 7, nil)
	if len(prepared) != 1 || !g.RetireSteal(prepared[0].JobID) {
		t.Fatalf("prepared %d steals, or the retire was refused", len(prepared))
	}
	id := prepared[0].JobID
	live, _ := g.Job(id)
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}

	j2 := openTestJournal(t, dir)
	t.Cleanup(func() { j2.Close() })
	recs, rerr := replayDir(t, dir)
	r := schedGalaxy(t, sched.Config{}, WithJournal(j2, "h1"))
	r.RegisterDataset("nfl", rs)
	rep, err := r.Recover(recs, rerr, RecoverOptions{RestartDelay: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, rj := range rep.Jobs {
		if rj.ID == id && (rj.Action != "kept" || rj.State != StateStolen || rj.Owner != "h2") {
			t.Errorf("job %d recovered as %+v, want kept, stolen, owned by h2", id, rj)
		}
	}
	if job, _ := r.Job(id); job.Info != live.Info || job.Finished != live.Finished {
		t.Errorf("job %d recovered with info %q finished %v, want the live %q at %v", id, job.Info, job.Finished, live.Info, live.Finished)
	}
	r.Run()
	if job, _ := r.Job(id); job.State != StateStolen {
		t.Errorf("job %d ended %s (%s) after recovery, want stolen", id, job.State, job.Info)
	}
	if err := j2.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, _ = replayDir(t, dir)
	if tr := journal.Fold(recs).Jobs[id]; tr.State != StateStolen || len(tr.Starts) != 0 || len(tr.Illegal) != 0 {
		t.Errorf("job %d's trail folds to %s with %d start(s) and illegal %+v, want stolen, never started",
			id, tr.State, len(tr.Starts), tr.Illegal)
	}
}

func TestRecoverRestoresQuarantineAndFairShare(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	plan := faults.NewPlan(1, faults.Rule{
		Match: faults.Match{Op: faults.OpExec, Job: 1, Devices: []int{0, 1}},
		Fault: faults.Fault{Class: faults.Transient, Msg: "Xid 79"},
		Count: 1,
	})
	g := testGalaxy(t,
		WithJournal(j, "h1"),
		WithFaultPlan(plan),
		WithRetry(faults.Backoff{MaxAttempts: 3, Base: time.Second}),
		WithQuarantine(faults.NewQuarantine(1, 0)),
		WithScheduler(sched.New(sched.Config{})),
	)
	rs := smallReadSet(t)
	job, err := g.Submit("racon", fastParams(), rs, SubmitOptions{DatasetName: "nfl", User: "alice", GPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateOK || len(job.Failures) != 1 {
		t.Fatalf("pre-crash job state=%s failures=%d", job.State, len(job.Failures))
	}
	preQuarantined := g.DeviceQuarantine().Quarantined(g.Engine.Clock().Now())
	if len(preQuarantined) == 0 {
		t.Fatal("fault did not quarantine any device")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, rerr := replayDir(t, dir)
	j2 := openTestJournal(t, dir)
	defer j2.Close()
	s2 := sched.New(sched.Config{})
	g2 := testGalaxy(t, WithJournal(j2, "h1"),
		WithQuarantine(faults.NewQuarantine(1, 0)), WithScheduler(s2))
	rep, err := g2.Recover(recs, rerr, RecoverOptions{
		Datasets: map[string]any{"nfl": rs}, RestartDelay: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := g2.Engine.Clock().Now()
	got := g2.DeviceQuarantine().Quarantined(now)
	if len(got) != len(preQuarantined) || got[0] != preQuarantined[0] {
		t.Fatalf("quarantine after recovery = %v, want %v", got, preQuarantined)
	}
	if rep.QuarantineRestored == 0 {
		t.Error("report shows no quarantine spans restored")
	}
	if len(rep.Faults) != 1 || rep.Faults[0].Op != string(faults.OpExec) {
		t.Fatalf("replayed faults = %+v", rep.Faults)
	}
	if s2.Usage("alice") <= 0 {
		t.Error("completed GPU job's runtime not re-credited to fair share")
	}
}

func TestRecoverRequiresFreshInstanceAndDataset(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	g := testGalaxy(t, WithJournal(j, "h1"))
	rs := smallReadSet(t)
	if _, err := g.Submit("racon", fastParams(), rs, SubmitOptions{DatasetName: "nfl"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}
	recs, rerr := replayDir(t, dir)

	if _, err := g.Recover(recs, rerr, RecoverOptions{}); err == nil {
		t.Fatal("Recover on a used instance did not error")
	}

	// Without the dataset the job cannot be re-run; it must recover as
	// failed, not vanish or panic.
	g2 := testGalaxy(t)
	rep, err := g2.Recover(recs, rerr, RecoverOptions{RestartDelay: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Requeued != 0 {
		t.Fatalf("datasetless recovery = %+v", rep)
	}
	if job := g2.Jobs()[0]; job.State != StateError ||
		!strings.Contains(job.Info, "unrecoverable") {
		t.Fatalf("job = %s %q", job.State, job.Info)
	}
}

// TestRecoveredFailureIsDurable: a job recovery cannot requeue (its dataset
// is not registered) fails with the reason, and that verdict is journaled
// like any other terminal transition. A second recovery of the same
// directory, uncompacted and with the dataset back, keeps the job as it
// was reported rather than running it.
func TestRecoveredFailureIsDurable(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	g := testGalaxy(t, WithJournal(j, "h1"))
	if _, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{DatasetName: "nfl"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}

	recoverDir := func(register bool) (*Galaxy, *RecoveryReport) {
		t.Helper()
		jr := openTestJournal(t, dir)
		t.Cleanup(func() { _ = jr.Close() })
		recs, rerr := replayDir(t, dir)
		gr := testGalaxy(t, WithJournal(jr, "h1"))
		if register {
			gr.RegisterDataset("nfl", smallReadSet(t))
		}
		rep, err := gr.Recover(recs, rerr, RecoverOptions{RestartDelay: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		gr.Run()
		if err := jr.Close(); err != nil {
			t.Fatal(err)
		}
		return gr, rep
	}
	_, rep := recoverDir(false)
	if rep.Failed != 1 || rep.Requeued != 0 {
		t.Fatalf("datasetless recovery = %+v", rep)
	}
	g3, rep := recoverDir(true)
	if rep.Failed != 0 || rep.Requeued != 0 || rep.Errored != 1 ||
		len(rep.Jobs) != 1 || rep.Jobs[0].Action != "kept" {
		t.Fatalf("second recovery = %+v %+v, want the failed job kept", rep, rep.Jobs)
	}
	if job := g3.Jobs()[0]; job.State != StateError || !strings.Contains(job.Info, "unrecoverable") {
		t.Fatalf("job after the second recovery = %s %q, want error, unrecoverable", job.State, job.Info)
	}
}

func TestResubmitDeadLetterRunsFreshEpoch(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	defer j.Close()
	plan := faults.NewPlan(1, faults.Rule{
		Match: faults.Match{Op: faults.OpExec},
		Fault: faults.Fault{Class: faults.Permanent, Msg: "driver wedged"},
		Count: 1,
	})
	g := testGalaxy(t, WithJournal(j, "h1"), WithFaultPlan(plan))
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{DatasetName: "nfl"})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateDeadLetter {
		t.Fatalf("state = %s, want dead_letter", job.State)
	}

	if _, err := g.ResubmitDeadLetter(99); !errors.Is(err, ErrNoJob) {
		t.Errorf("resubmitting an unknown job: %v, want ErrNoJob", err)
	}
	got, err := g.ResubmitDeadLetter(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got != job {
		t.Fatal("resubmit returned a different job")
	}
	if job.Attempt() != 1 {
		t.Errorf("Attempt() after resubmit = %d, want a fresh budget", job.Attempt())
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("resubmitted job finished %s: %s", job.State, job.Info)
	}
	if len(job.Failures) != 1 {
		t.Errorf("failure log lost on resubmit: %d entries", len(job.Failures))
	}
	if _, err := g.ResubmitDeadLetter(job.ID); err == nil || errors.Is(err, ErrNoJob) {
		t.Errorf("resubmitting an ok job: %v, want a not-dead-lettered error", err)
	}
}

func TestSnapshotJournalSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	g := testGalaxy(t, WithJournal(j, "h1"))
	rs := smallReadSet(t)
	first, err := g.Submit("racon", fastParams(), rs, SubmitOptions{DatasetName: "nfl"})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if err := g.SnapshotJournal(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot activity lands in the fresh segment.
	second, err := g.Submit("racon", fastParams(), rs, SubmitOptions{DatasetName: "nfl"})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, rerr := replayDir(t, dir)
	if rerr != nil {
		t.Fatalf("snapshot+tail replay errored: %v", rerr)
	}
	g2 := testGalaxy(t)
	rep, err := g2.Recover(recs, rerr, RecoverOptions{
		Datasets: map[string]any{"nfl": rs}, RestartDelay: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 {
		t.Fatalf("recovered %d completed jobs from snapshot+tail, want 2: %+v", rep.Completed, rep)
	}
	jobs := g2.Jobs()
	if len(jobs) != 2 || jobs[0].ID != first.ID || jobs[1].ID != second.ID {
		t.Fatalf("recovered job set = %+v", jobs)
	}
}

// TestRecoverRefusesCorruptSnapshot checks that a corrupt snapshot — the
// compacted base, not a routine torn tail — aborts recovery instead of
// silently building an incomplete world.
func TestRecoverRefusesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	g := testGalaxy(t, WithJournal(j, "h1"))
	rs := smallReadSet(t)
	if _, err := g.Submit("racon", fastParams(), rs, SubmitOptions{DatasetName: "nfl"}); err != nil {
		t.Fatal(err)
	}
	g.Run()
	if err := g.SnapshotJournal(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v (%v)", snaps, err)
	}
	b, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	b[4] ^= 0xFF // flip the first record's CRC
	if err := os.WriteFile(snaps[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, rerr := journal.Replay(dir)
	var cerr *journal.CorruptRecordError
	if !asCorrupt(rerr, &cerr) || !cerr.IsSnapshot() {
		t.Fatalf("want snapshot CorruptRecordError from replay, got %v", rerr)
	}
	g2 := testGalaxy(t, WithJournal(openTestJournal(t, t.TempDir()), "h2"))
	if _, err := g2.Recover(recs, rerr, RecoverOptions{
		Datasets: map[string]any{"nfl": rs}, RestartDelay: time.Second,
	}); err == nil {
		t.Fatal("recovery from a corrupt snapshot must be refused")
	} else if !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("refusal should name the snapshot: %v", err)
	}
}

// TestRecoverRefusesLegacyJournal hands Recover the refusal a journal
// directory an older version wrote draws from replay — here a CRC-valid JSON
// record in shard-00/, which replay once cut short as a torn tail — and
// requires recovery to abort rather than boot over the records it cannot read.
func TestRecoverRefusesLegacyJournal(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"t":"submit","at":0,"h":"h1","k":1,"job":1,"tool":"racon","dataset":"nfl"}`)
	seg := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(payload))
	seg = append(seg, payload...)
	if err := os.MkdirAll(filepath.Join(dir, "shard-00"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-00", "wal-00000001.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, rerr := journal.Replay(dir)
	if !errors.Is(rerr, journal.ErrLegacyFormat) {
		t.Fatalf("replay: %v, want ErrLegacyFormat", rerr)
	}
	g := testGalaxy(t, WithJournal(openTestJournal(t, t.TempDir()), "h1"))
	if _, err := g.Recover(recs, rerr, RecoverOptions{
		Datasets: map[string]any{"nfl": smallReadSet(t)}, RestartDelay: time.Second,
	}); !errors.Is(err, journal.ErrLegacyFormat) {
		t.Fatalf("recover: %v, want the refusal", err)
	}
}

// spliceMapRecords puts back what the commit before PR 24 journaled: a map
// record in front of every start and after the submit of every job that never
// started. The spliced gang is [0,1] whatever the start says — the mapper's
// answer, which under the scheduler was not what ran. writeJournal stamps
// tickets in stream order, so each stays where it is spliced.
func spliceMapRecords(t *testing.T, payloads []string) (spliced []string) {
	t.Helper()
	recs := make([]journal.Record, len(payloads))
	started := map[int]bool{}
	for i, p := range payloads {
		if err := json.Unmarshal([]byte(p), &recs[i]); err != nil {
			t.Fatal(err)
		}
		if recs[i].Type == journal.TypeStart {
			started[recs[i].Job] = true
		}
	}
	mapFor := func(r journal.Record) string {
		b, err := json.Marshal(journal.Record{
			Type: journal.TypeMap, At: r.At, Handler: r.Handler, Tick: r.Tick, Job: r.Job,
			Destination: "local_gpu", GPUEnabled: true, Devices: []int{0, 1},
			Msg: "pid policy: no device preference; using available GPU(s) [0 1]",
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for i, r := range recs {
		if r.Type == journal.TypeStart {
			spliced = append(spliced, mapFor(r))
		}
		spliced = append(spliced, payloads[i])
		if r.Type == journal.TypeSubmit && !started[r.Job] {
			spliced = append(spliced, mapFor(r))
		}
	}
	return spliced
}

// TestRecoverSplicedMapRecordsChangeNothing is the differential oracle for
// retiring the map kind: journals the engine writes now on each dispatch path
// (one finished job, two running, one parked, one killed while parked), and
// the PR 23 old-journal fixture that already holds map records, must recover
// to the same report, the same jobs at the resumed instant and the same jobs
// after the drain whether or not a parent-format map record sits wherever the
// parent wrote one.
func TestRecoverSplicedMapRecordsChangeNothing(t *testing.T) {
	rs := smallReadSet(t)
	datasets := map[string]any{"nfl": rs, "reads": rs}
	// written runs the mixed workload to a cut at one second and returns the
	// stream as payloads. Jobs 4 and 5 arrive with the given delay: a
	// millisecond parks them behind the two busy slots or devices, an hour
	// leaves them unstarted on the path that never parks.
	written := func(t *testing.T, build func(*testing.T, *journal.Journal) *Galaxy, late time.Duration) []string {
		dir := t.TempDir()
		j := openTestJournal(t, dir)
		g := build(t, j)
		var jobs []*Job
		for i, scale := range []string{"0.001", "0.01", "0.01", "0.01", "0.01"} {
			opts := SubmitOptions{DatasetName: "nfl", GPUs: 1, Delay: time.Duration(i) * time.Microsecond}
			if i >= 3 {
				opts.Delay += late
			}
			job, err := g.Submit("racon", map[string]string{"scale": scale}, rs, opts)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job)
		}
		g.Engine.After(100*time.Millisecond, func(time.Duration) { g.Kill(jobs[3]) })
		g.Engine.RunUntil(time.Second)
		var states []string
		for _, job := range jobs {
			states = append(states, string(job.State))
		}
		if got := strings.Join(states, ","); got != "ok,running,running,error,queued" || jobs[3].Started != 0 {
			t.Fatalf("states at the cut = %s (killed job started %v); want ok,running,running,error,queued and never",
				got, jobs[3].Started)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		recs, rerr := replayDir(t, dir)
		if rerr != nil {
			t.Fatal(rerr)
		}
		var payloads []string
		for _, rec := range recs {
			if rec.Type == journal.TypeMap {
				t.Fatalf("the engine journaled a map record: %+v", rec)
			}
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, string(b))
		}
		return payloads
	}
	streams := []struct {
		name  string
		build func(*testing.T, *journal.Journal) *Galaxy
		// late is jobs 4 and 5's extra delay; payloads, when set, is a stream
		// already written.
		late     time.Duration
		payloads []string
	}{
		{"direct", directPath, time.Hour, nil},
		{"destination slots", slotsPath, time.Millisecond, nil},
		{"scheduler", schedulerPath, time.Millisecond, nil},
		{"journal written before PR 23", schedulerPath, 0, pr22Journal},
	}
	type outcome struct {
		rep            RecoveryReport
		resumed, final []*Job
	}
	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			recoverFrom := func(payloads []string) outcome {
				dir := writeJournal(t, payloads)
				recs, rerr := replayDir(t, dir)
				if rerr != nil || len(recs) != len(payloads) {
					t.Fatalf("replayed %d of %d records: %v", len(recs), len(payloads), rerr)
				}
				j := openTestJournal(t, dir)
				defer j.Close()
				g := s.build(t, j)
				rep, err := g.Recover(recs, rerr, RecoverOptions{Datasets: datasets, RestartDelay: time.Minute})
				if err != nil {
					t.Fatal(err)
				}
				out := outcome{rep: *rep, resumed: g.Jobs()}
				g.Run()
				out.final = g.Jobs()
				// A ticket is the writer's stamp, not the record's content:
				// each spliced record takes one and moves every later one.
				for _, job := range append(out.resumed, out.final...) {
					job.submit.Tick = 0
				}
				return out
			}
			plain := s.payloads
			if plain == nil {
				plain = written(t, s.build, s.late)
			}
			spliced := spliceMapRecords(t, plain)
			n := len(spliced) - len(plain)
			if n == 0 {
				t.Fatal("nothing to splice: the stream has no start and no unstarted submit")
			}
			want, got := recoverFrom(plain), recoverFrom(spliced)
			if got.rep.Records != want.rep.Records+n {
				t.Errorf("replayed %d records, want %d + the %d spliced", got.rep.Records, want.rep.Records, n)
			}
			got.rep.Records = want.rep.Records
			if !reflect.DeepEqual(got.rep, want.rep) {
				t.Errorf("map records changed the recovery report:\n got %+v\nwant %+v", got.rep, want.rep)
			}
			if want.rep.Requeued == 0 {
				t.Errorf("nothing requeued: the stream does not exercise recovery: %+v", want.rep)
			}
			for _, c := range []struct {
				when      string
				got, want []*Job
			}{{"at the resumed instant", got.resumed, want.resumed}, {"after the drain", got.final, want.final}} {
				if len(c.got) != len(c.want) || len(c.want) == 0 {
					t.Fatalf("%s: %d jobs, want %d", c.when, len(c.got), len(c.want))
				}
				for i := range c.want {
					if !reflect.DeepEqual(c.got[i], c.want[i]) {
						t.Errorf("%s, map records changed job %d:\n got %+v\nwant %+v", c.when, c.want[i].ID, c.got[i], c.want[i])
					}
				}
			}
		})
	}
}

// TestRecoverFailsAnInvalidOldJob: a journal an older engine wrote may hold a
// queued job whose params this engine's submit check refuses. Recovery fails
// it with the reason instead of mapping it, and requeues the valid job beside
// it.
func TestRecoverFailsAnInvalidOldJob(t *testing.T) {
	dir := writeJournal(t, []string{
		`{"t":"submit","at":0,"h":"h1","job":1,"tool":"racon","params":{"threads":"bogus"},"dataset":"reads"}`,
		`{"t":"submit","at":0,"h":"h1","job":2,"tool":"racon","params":{"scale":"0.001"},"dataset":"reads"}`,
	})
	recs, rerr := replayDir(t, dir)
	j := openTestJournal(t, dir)
	defer j.Close()
	g := testGalaxy(t, WithJournal(j, "h1"))
	rep, err := g.Recover(recs, rerr, RecoverOptions{Datasets: map[string]any{"reads": smallReadSet(t)}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Requeued != 1 {
		t.Fatalf("report failed/requeued = %d/%d, want 1/1", rep.Failed, rep.Requeued)
	}
	g.Run()
	bad, _ := g.Job(1)
	if bad.State != StateError || !strings.Contains(bad.Info, `threads="bogus" is not an integer`) {
		t.Errorf("invalid old job recovered as %s (%q), want an error naming the param", bad.State, bad.Info)
	}
	if bad.Destination != "" || bad.PID != 0 {
		t.Errorf("invalid old job was mapped to %q as pid %d", bad.Destination, bad.PID)
	}
	if good, _ := g.Job(2); good.State != StateOK {
		t.Errorf("valid old job finished %s: %s", good.State, good.Info)
	}
}

// recoverAgain opens the journal in dir as h1, replays it, recovers a fresh
// engine with the reads dataset registered, drains it and closes the
// journal, returning the engine and its report.
func recoverAgain(t *testing.T, dir string) (*Galaxy, *RecoveryReport) {
	t.Helper()
	j := openTestJournal(t, dir)
	recs, rerr := replayDir(t, dir)
	g := testGalaxy(t, WithJournal(j, "h1"))
	g.RegisterDataset("reads", smallReadSet(t))
	rep, err := g.Recover(recs, rerr, RecoverOptions{RestartDelay: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return g, rep
}

// TestRecoverActsOnRefusedRecords recovers the two streams a kill racing a
// steal used to write. Kill-then-abort: the lifecycle refuses the complete
// between the prepare and the abort, so the trail folds open, and recovery
// fails the job durably, naming the refused record, where it used to requeue
// the killed job and run it to ok. Kill-then-retire: the thief's accept
// outranks the kill, so the trail folds stolen and is kept as it folded.
func TestRecoverActsOnRefusedRecords(t *testing.T) {
	submit := `{"t":"submit","at":0,"h":"h1","job":1,"tool":"racon","params":{"scale":"0.001"},"dataset":"reads"}`
	prepare := `{"t":"steal_prepare","at":1000,"h":"h2","job":1,"from":"h1","xfer":7}`
	kill := `{"t":"complete","at":2000,"h":"h1","job":1,"state":"error","msg":"killed by user"}`

	t.Run("kill then abort", func(t *testing.T) {
		dir := writeJournal(t, []string{submit, prepare, kill,
			`{"t":"steal_abort","at":3000,"h":"h2","job":1,"from":"h1","xfer":7}`})
		recs, _ := replayDir(t, dir)
		g, rep := recoverAgain(t, dir)
		if want := (RecoveredJob{ID: 1, Tool: "racon", State: StateError, Action: "failed", Owner: "h1"}); rep.Failed != 1 || rep.Jobs[0] != want {
			t.Fatalf("recovered %+v (failed %d), want %+v", rep.Jobs, rep.Failed, want)
		}
		job, _ := g.Job(1)
		if job.State != StateError || job.Started != 0 || job.PID != 0 {
			t.Errorf("job ended %s, started at %v as pid %d; want error, never started", job.State, job.Started, job.PID)
		}
		if tick := fmt.Sprint(recs[2].Tick); !strings.Contains(job.Info, "complete record (ticket "+tick+")") {
			t.Errorf("job's reason %q does not name the refused complete, ticket %s", job.Info, tick)
		}
		tr, _ := g.Trail(1)
		var names []string
		for _, e := range tr.Events {
			names = append(names, e.Name)
		}
		if got := strings.Join(names, ","); got != "submit,steal_prepare,complete,steal_abort,complete" {
			t.Errorf("served trail %s, want the refused complete shown and the failure last", got)
		}

		_, rep = recoverAgain(t, dir)
		if want := (RecoveredJob{ID: 1, Tool: "racon", State: StateError, Action: "kept", Owner: "h1"}); rep.Jobs[0] != want {
			t.Errorf("second recovery: %+v, want %+v", rep.Jobs[0], want)
		}
		if again, _ := replayDir(t, dir); len(again) != len(recs)+1 {
			t.Errorf("journal holds %d records, want the %d written and the one failure", len(again), len(recs))
		}
	})

	t.Run("kill then retire", func(t *testing.T) {
		dir := writeJournal(t, []string{submit, prepare, kill,
			`{"t":"steal_retire","at":3000,"h":"h2","job":1,"from":"h1","xfer":7}`})
		_, rep := recoverAgain(t, dir)
		if want := (RecoveredJob{ID: 1, Tool: "racon", State: StateStolen, Action: "kept", Owner: "h2"}); rep.Jobs[0] != want {
			t.Errorf("recovered %+v, want %+v", rep.Jobs[0], want)
		}
	})
}

// TestRecoverAppliesEachRecordsInverse recovers a hand-written trail that
// runs twice, dead-letters, is resubmitted and fails once more: the job comes
// back with all three failures, a retry budget counting from the resubmit,
// and the newest start's epoch, placement, PID and Info. Open, it requeues as
// the next epoch; closed by a third run, it is kept as that run left it.
func TestRecoverAppliesEachRecordsInverse(t *testing.T) {
	trail := []string{
		`{"t":"submit","at":0,"h":"h1","job":1,"tool":"racon","params":{"scale":"0.001"},"dataset":"reads"}`,
		`{"t":"start","at":1000,"h":"h1","job":1,"epoch":1,"dest":"local_gpu","gpu":true,"devices":[0],"pid":101,"msg":"first"}`,
		`{"t":"attempt","at":2000,"h":"h1","job":1,"attempt":1,"op":"exec","class":"transient","devices":[0]}`,
		`{"t":"start","at":3000,"h":"h1","job":1,"epoch":2,"dest":"local_gpu","gpu":true,"devices":[1],"pid":202,"msg":"second"}`,
		`{"t":"attempt","at":4000,"h":"h1","job":1,"attempt":2,"op":"exec","class":"permanent","devices":[1]}`,
		`{"t":"dead_letter","at":5000,"h":"h1","job":1,"msg":"budget spent"}`,
		`{"t":"resubmit","at":6000,"h":"h1","job":1}`,
		`{"t":"attempt","at":7000,"h":"h1","job":1,"attempt":1,"op":"survey","class":"transient"}`,
	}
	for _, tc := range []struct {
		name   string
		more   []string
		action string
		want   Job
	}{
		{"open", nil, "requeued", Job{State: StateQueued, run: 2, Started: 3000, Destination: "local_gpu", Devices: []int{1}, PID: 202,
			Info: "recovered: rerunning as epoch 3 after handler crash"}},
		{"closed by a third run", []string{
			`{"t":"start","at":8000,"h":"h1","job":1,"epoch":3,"dest":"local","devices":[],"pid":303,"msg":"third"}`,
			`{"t":"complete","at":9000,"h":"h1","job":1,"epoch":3,"state":"ok"}`,
		}, "kept", Job{State: StateOK, run: 3, Started: 8000, Finished: 9000, Destination: "local", PID: 303, Info: "third"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeJournal(t, append(slices.Clone(trail), tc.more...))
			j := openTestJournal(t, dir)
			defer j.Close()
			recs, rerr := replayDir(t, dir)
			g := testGalaxy(t, WithJournal(j, "h1"))
			g.RegisterDataset("reads", smallReadSet(t))
			rep, err := g.Recover(recs, rerr, RecoverOptions{})
			if err != nil {
				t.Fatal(err)
			}
			job, _ := g.Job(1)
			if rep.Jobs[0].Action != tc.action || job.State != tc.want.State {
				t.Errorf("recovered %s, %s; want %s, %s", rep.Jobs[0].Action, job.State, tc.action, tc.want.State)
			}
			if len(job.Failures) != 3 || job.attemptBase != 2 || job.Attempt() != 2 {
				t.Errorf("%d failures, budget from %d (attempt %d); want 3, from 2 (attempt 2)", len(job.Failures), job.attemptBase, job.Attempt())
			}
			if f := job.Failures; len(f) == 3 && (f[1].Class != faults.Permanent || f[2].Op != faults.Op("survey") || !slices.Equal(f[0].Devices, []int{0})) {
				t.Errorf("failure log %+v, want each attempt's class, op and culprits", f)
			}
			got := Job{State: job.State, run: job.run, Started: job.Started, Finished: job.Finished,
				Destination: job.Destination, Devices: job.Devices, PID: job.PID, Info: job.Info}
			if len(got.Devices) == 0 {
				got.Devices = nil
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("recovered run %+v,\nwant %+v", got, tc.want)
			}
		})
	}
}
