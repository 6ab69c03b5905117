package galaxy

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
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
	j, err := journal.Open(dir, journal.Options{DurableSubmits: true})
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

// writeFlatJournal frames the payloads into a fresh directory's one flat
// segment — the layout older writers used: one more stream to Replay, never
// appended to — so a test can recover bytes no current writer produces.
func writeFlatJournal(t *testing.T, payloads []string) string {
	t.Helper()
	dir := t.TempDir()
	var seg []byte
	for _, payload := range payloads {
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(payload)))
		seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE([]byte(payload)))
		seg = append(seg, payload...)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), seg, 0o644); err != nil {
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
	// The cut: the four sync-acked submits are on disk, and with the
	// flushers held nothing journaled after them ever is — the crash loses
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
	g2 := testGalaxy(t, WithJournal(j2, "h1"), WithLeaseTTL(10*time.Second))
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

func TestLeaseExpiryGatesAdoption(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	g := testGalaxy(t, WithJournal(j, "h1"), WithLeaseTTL(10*time.Second))
	rs := smallReadSet(t)
	if _, err := g.Submit("racon", fastParams(), rs, SubmitOptions{DatasetName: "nfl"}); err != nil {
		t.Fatal(err)
	}
	g.Engine.RunUntil(0) // submit journaled, job still queued
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}
	recs, rerr := replayDir(t, dir)
	datasets := map[string]any{"nfl": rs}

	// Standby restarts before h1's lease expires: the job must be left
	// orphaned, not run twice.
	early := testGalaxy(t, WithJournal(openTestJournal(t, t.TempDir()), "h2"),
		WithLeaseTTL(10*time.Second))
	rep, err := early.Recover(recs, rerr, RecoverOptions{
		Datasets: datasets, RestartDelay: 2 * time.Second, AdoptExpired: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adopted != 0 || rep.Orphaned != 1 {
		t.Fatalf("live-lease recovery adopted=%d orphaned=%d", rep.Adopted, rep.Orphaned)
	}
	early.Run()
	if got := early.Jobs()[0]; got.State != StateQueued ||
		!strings.Contains(got.Info, "orphaned") {
		t.Fatalf("orphan state=%s info=%q", got.State, got.Info)
	}
	if li, ok := rep.Leases["h1"]; !ok || li.Expired {
		t.Fatalf("h1 lease = %+v, want live", li)
	}

	// Standby restarts after the lease expired: it adopts and finishes the
	// job.
	late := testGalaxy(t, WithJournal(openTestJournal(t, t.TempDir()), "h2"),
		WithLeaseTTL(10*time.Second))
	rep, err = late.Recover(recs, rerr, RecoverOptions{
		Datasets: datasets, RestartDelay: 30 * time.Second, AdoptExpired: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adopted != 1 || rep.Requeued != 1 || rep.Orphaned != 0 {
		t.Fatalf("expired-lease recovery = %+v", rep)
	}
	late.Run()
	if got := late.Jobs()[0]; got.State != StateOK {
		t.Fatalf("adopted job finished %s: %s", got.State, got.Info)
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

// TestWallClockLeaseBlocksAdoption pins the idle-handler split-brain guard:
// a handler that is quiet in virtual time but still heartbeating in wall
// time must not have its jobs adopted, however large the virtual
// RestartDelay. Only once the wall-clock trail goes stale is adoption legal.
func TestWallClockLeaseBlocksAdoption(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	epoch := time.Unix(1000, 0)
	g := testGalaxy(t, WithJournal(j, "h1"), WithLeaseTTL(10*time.Second),
		WithWallClock(func() time.Time { return epoch }))
	rs := smallReadSet(t)
	if _, err := g.Submit("racon", fastParams(), rs, SubmitOptions{DatasetName: "nfl"}); err != nil {
		t.Fatal(err)
	}
	g.Engine.RunUntil(0) // submit journaled, job still queued
	g.WriteLease()       // the wall-clock ticker's heartbeat
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}
	recs, rerr := replayDir(t, dir)
	datasets := map[string]any{"nfl": rs}

	// The virtual RestartDelay alone says the lease is long dead, but h1
	// heartbeated 5 wall-seconds ago: it is alive, hands off its jobs.
	early := testGalaxy(t, WithJournal(openTestJournal(t, t.TempDir()), "h2"),
		WithLeaseTTL(10*time.Second))
	rep, err := early.Recover(recs, rerr, RecoverOptions{
		Datasets: datasets, RestartDelay: time.Hour, AdoptExpired: true,
		WallNow: epoch.Add(5 * time.Second).UnixNano(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adopted != 0 || rep.Orphaned != 1 {
		t.Fatalf("wall-live lease: adopted=%d orphaned=%d, want 0/1", rep.Adopted, rep.Orphaned)
	}
	if li := rep.Leases["h1"]; li.Expired || li.WallLast == 0 {
		t.Fatalf("h1 lease = %+v, want wall-stamped and live", li)
	}

	// 20 wall-seconds of silence outlives the 10 s TTL: h1 is dead, adopt.
	late := testGalaxy(t, WithJournal(openTestJournal(t, t.TempDir()), "h2"),
		WithLeaseTTL(10*time.Second))
	rep, err = late.Recover(recs, rerr, RecoverOptions{
		Datasets: datasets, RestartDelay: time.Hour, AdoptExpired: true,
		WallNow: epoch.Add(20 * time.Second).UnixNano(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adopted != 1 || rep.Orphaned != 0 {
		t.Fatalf("wall-expired lease: adopted=%d orphaned=%d, want 1/0", rep.Adopted, rep.Orphaned)
	}
	late.Run()
	if got := late.Jobs()[0]; got.State != StateOK {
		t.Fatalf("adopted job finished %s: %s", got.State, got.Info)
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

// spliceMapRecords puts back what the commit before PR 24 journaled: a map
// record in front of every start and after the submit of every job that never
// started. The spliced gang is [0,1] whatever the start says — the mapper's
// answer, which under the scheduler was not what ran. Each takes its
// neighbour's ticket, so Replay's stable merge keeps it in place.
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
				dir := writeFlatJournal(t, payloads)
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
