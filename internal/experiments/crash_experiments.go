package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gyan/internal/faults"
	"gyan/internal/galaxy"
	"gyan/internal/journal"
	"gyan/internal/report"
	"gyan/internal/timeline"
	"gyan/internal/workload"
)

func init() {
	register("crash-recovery",
		"Handler failover: kill a journaled handler mid-workload, replay the WAL on a standby, and audit for lost jobs and double executions",
		runCrashRecovery)
}

// crashAt is the virtual instant handler h1 is killed: late enough that part
// of the workload has finished, early enough that jobs are still queued
// behind their arrival delays.
const crashAt = 8 * time.Second

// crashRestartDelay is the virtual downtime between h1's death and h2's
// resumption.
const crashRestartDelay = 15 * time.Second

// crashTrace is the arrival trace every phase replays: a Poisson stream of
// identical single-GPU polishing jobs.
func crashTrace(seed uint64) ([]time.Duration, error) {
	arrivals, err := workload.PoissonArrivals(seed, 1.0, 14)
	if err != nil {
		return nil, err
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })
	return arrivals, nil
}

// crashPlan arms two one-shot transient exec faults (one fires before the
// crash, one after the failover), so the journal's attempt records and the
// retry machinery are exercised on both sides of the restart.
func crashPlan(seed uint64) *faults.Plan {
	return faults.NewPlan(seed,
		faults.Rule{
			Match: faults.Match{Op: faults.OpExec, Job: 5},
			Fault: faults.Fault{Class: faults.Transient, Msg: "ECC corrected storm"},
			Count: 1,
		},
		faults.Rule{
			Match: faults.Match{Op: faults.OpExec, Job: 11},
			Fault: faults.Fault{Class: faults.Transient, Msg: "ECC corrected storm"},
			Count: 1,
		},
	)
}

// crashGalaxy builds one phase's engine and submits the shared trace.
func crashGalaxy(opt Options, rs *workload.ReadSet, arrivals []time.Duration, extra ...galaxy.Option) (*galaxy.Galaxy, []*galaxy.Job, error) {
	gopts := append([]galaxy.Option{
		galaxy.WithFaultPlan(crashPlan(opt.Seed)),
		galaxy.WithRetry(faults.Backoff{MaxAttempts: 4, Base: 250 * time.Millisecond, Max: 2 * time.Second}),
	}, extra...)
	g := galaxy.New(nil, gopts...)
	if err := g.RegisterDefaultTools(); err != nil {
		return nil, nil, err
	}
	g.RegisterDataset("nfl", rs)
	jobs := make([]*galaxy.Job, len(arrivals))
	for i, at := range arrivals {
		var err error
		jobs[i], err = g.Submit("racon", map[string]string{"scale": "0.008"}, rs,
			galaxy.SubmitOptions{Delay: at, DatasetName: "nfl"})
		if err != nil {
			return nil, nil, err
		}
	}
	return g, jobs, nil
}

// auditSegments decodes every shard's segment files in the journal directory
// independently and returns the union of durable records plus the number of
// segments that ended in a corruption artifact. Replay() does the same
// skip-past-torn-tails walk internally; the audit reimplements it from raw
// segment bytes so the experiment's invariants do not depend on the code
// under test.
func auditSegments(dir string) ([]journal.Record, int, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*.seg"))
	if err != nil {
		return nil, 0, err
	}
	sort.Strings(segs)
	var out []journal.Record
	torn := 0
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			return nil, 0, err
		}
		recs, rerr := journal.ReplayBytes(b)
		out = append(out, recs...)
		if rerr != nil {
			torn++
		}
	}
	return out, torn, nil
}

// runCrashRecovery runs the same arrival trace three ways. The baseline runs
// to completion uninterrupted and defines the expected completion set.
// Handler h1 runs the trace journaled and is killed (torn tail and all) at
// crashAt. Standby h2 takes the journal's lock, replays it, adopts h1's
// unfinished jobs, and finishes the workload. A final audit over every durable
// record pins the failover invariants: no job is lost, no job's execution is
// durably recorded twice, the completion set matches the baseline, and
// requeued jobs redispatch in submission (seniority) order.
func runCrashRecovery(opt Options) (*Result, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	arrivals, err := crashTrace(opt.Seed)
	if err != nil {
		return nil, err
	}
	res := newResult("crash-recovery", "Kill handler h1 mid-workload; standby h2 replays the journal and finishes")

	// Phase 1: the uninterrupted baseline fixes the expected outcome.
	gBase, baseJobs, err := crashGalaxy(opt, rs, arrivals)
	if err != nil {
		return nil, err
	}
	baseEnd := gBase.Run()
	baseline := map[int]galaxy.JobState{}
	for _, j := range baseJobs {
		baseline[j.ID] = j.State
	}

	// Phase 2: handler h1 runs journaled and dies at crashAt. The Sync just
	// before the crash makes the cut explicit — everything journaled up to
	// crashAt is the durable prefix, so every run audits the same records —
	// and the torn tail models a record caught mid-write by the power cut.
	dir, err := os.MkdirTemp("", "gyan-crash-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	jA, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return nil, err
	}
	gA, _, err := crashGalaxy(opt, rs, arrivals,
		galaxy.WithJournal(jA, "h1"))
	if err != nil {
		return nil, err
	}
	gA.Engine.RunUntil(crashAt)
	preCrashOK := 0
	for _, j := range gA.Jobs() {
		if j.State == galaxy.StateOK {
			preCrashOK++
		}
	}
	if err := jA.Sync(); err != nil {
		return nil, err
	}
	if err := jA.CrashTorn([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe}); err != nil {
		return nil, err
	}

	// Phase 3: standby h2 takes the directory's lock — which proves h1
	// dead — replays it, recovers past the torn tail, adopts h1's jobs and
	// runs the workload to completion.
	jB, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return nil, err
	}
	recs, rerr := journal.Replay(dir)
	gB, _, err := crashGalaxy(opt, rs, nil, galaxy.WithJournal(jB, "h2"))
	if err != nil {
		return nil, err
	}
	rep, err := gB.Recover(recs, rerr, galaxy.RecoverOptions{RestartDelay: crashRestartDelay})
	if err != nil {
		return nil, err
	}
	recEnd := gB.Run()
	if err := jB.Close(); err != nil {
		return nil, err
	}

	// The audit: fold every durable record from both handlers.
	lost, doubles, seniorityViolations := 0, 0, 0
	identical := true
	recovered := gB.Jobs()
	for _, j := range recovered {
		if !j.Done() {
			lost++
			continue
		}
		if baseline[j.ID] != j.State {
			identical = false
		}
	}
	if len(recovered) != len(baseline) {
		lost += len(baseline) - len(recovered)
		identical = false
	}
	allRecs, tornSegs, err := auditSegments(dir)
	if err != nil {
		return nil, err
	}
	okCompletes := map[int]int{}
	for _, r := range allRecs {
		if r.Type == journal.TypeComplete && r.State == "ok" {
			okCompletes[r.Job]++
		}
	}
	for _, n := range okCompletes {
		if n > 1 {
			doubles++
		}
	}
	// Requeued jobs must redispatch oldest-first: among h2's clean launches,
	// start times are non-decreasing in job-ID (seniority) order. Retried
	// jobs are excluded — their Started reflects the last attempt's epoch.
	var lastStart time.Duration
	for _, j := range recovered {
		if j.Started < rep.ResumedAt || len(j.Failures) > 0 {
			continue
		}
		if j.Started < lastStart {
			seniorityViolations++
		}
		lastStart = j.Started
	}

	tb := report.NewTable(
		fmt.Sprintf("%d Poisson arrivals, h1 killed at %v (torn tail), h2 resumes %v later",
			len(arrivals), crashAt, crashRestartDelay),
		"phase", "jobs ok", "requeued", "adopted", "makespan", "note")
	tb.AddRow("baseline", fmt.Sprintf("%d/%d", len(baseline), len(arrivals)), "-", "-",
		report.Seconds(baseEnd), "uninterrupted")
	tb.AddRow("h1 (crashed)", fmt.Sprintf("%d/%d", preCrashOK, len(arrivals)), "-", "-",
		report.Seconds(crashAt), "killed, tail torn")
	tb.AddRow("h2 (failover)", fmt.Sprintf("%d/%d", len(recovered)-lost, len(arrivals)),
		fmt.Sprintf("%d", rep.Requeued), fmt.Sprintf("%d", rep.Adopted),
		report.Seconds(recEnd), fmt.Sprintf("replayed %d records", rep.Records))
	res.Tables = append(res.Tables, tb)

	boolMetric := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	res.Metrics["jobs_total"] = float64(len(arrivals))
	res.Metrics["completed_baseline"] = float64(len(baseline))
	res.Metrics["pre_crash_completed"] = float64(preCrashOK)
	res.Metrics["records_replayed"] = float64(rep.Records)
	res.Metrics["corrupt_tail"] = boolMetric(rep.CorruptTail != "")
	res.Metrics["torn_segments"] = float64(tornSegs)
	res.Metrics["requeued"] = float64(rep.Requeued)
	res.Metrics["adopted"] = float64(rep.Adopted)
	res.Metrics["lost_jobs"] = float64(lost)
	res.Metrics["double_executions"] = float64(doubles)
	res.Metrics["completion_set_identical"] = boolMetric(identical)
	res.Metrics["seniority_violations"] = float64(seniorityViolations)
	res.Metrics["makespan_baseline"] = baseEnd.Seconds()
	res.Metrics["makespan_recovered"] = recEnd.Seconds()
	res.Metrics["resumed_at"] = rep.ResumedAt.Seconds()
	// h2's observer watched the failover from the inside; its counters must
	// agree with the recovery report. (The fsync-batch tail is not here: how
	// many records a flusher finds staged is wall-clock timing, and every
	// metric of this experiment is compared across runs.)
	snapB := gB.Observer().Reg.Snapshot()
	res.Metrics["obs_resubmits"] = snapB["gyan_resubmits_total"]
	res.Metrics["obs_adoptions"] = snapB["gyan_adoptions_total"]
	res.Metrics["obs_completed_ok"] = snapB[`gyan_jobs_completed_total{state="ok"}`]

	var ch timeline.Chart
	ch.AddRecovery(rep)
	ch.AddJobs(recovered)
	res.Text = append(res.Text,
		fmt.Sprintf("Handler h1 journals every transition and is killed at %v with a torn record on disk. "+
			"Standby h2 replays %d durable records, discards the torn tail, keeps the %d completions that reached disk, "+
			"and, holding the journal's lock, adopts the rest (%d adopted, %d requeued). The audit over every durable record "+
			"finds %d lost jobs and %d double executions; the completion set matches the uninterrupted baseline.",
			crashAt, rep.Records, rep.Completed, rep.Adopted, rep.Requeued, lost, doubles),
		"Failover timeline (replay gap and the merged job history):\n\n"+ch.Render(72))
	return res, nil
}
