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
	register("journal-overhead",
		"Durability tax: wall-clock throughput of the same workload with the job-state journal off vs on (batched fsync)",
		runJournalOverhead)
}

// crashAt is the virtual instant handler h1 is killed: late enough that part
// of the workload has finished, early enough that jobs are still queued
// behind their arrival delays.
const crashAt = 8 * time.Second

// crashLeaseTTL and crashRestartDelay bracket the failover: the standby
// resumes after the dead handler's lease has expired, so adoption is legal.
const (
	crashLeaseTTL     = 10 * time.Second
	crashRestartDelay = 15 * time.Second
)

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
// crashAt. Standby h2 replays the journal, waits out h1's lease, adopts the
// orphans, and finishes the workload. A final audit over every durable
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
	jA, err := journal.Open(dir, journal.Options{DurableSubmits: true})
	if err != nil {
		return nil, err
	}
	gA, _, err := crashGalaxy(opt, rs, arrivals,
		galaxy.WithJournal(jA, "h1"), galaxy.WithLeaseTTL(crashLeaseTTL))
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

	// Phase 3: standby h2 replays the directory, recovers past the torn
	// tail, adopts h1's jobs once the lease math proves h1 dead, and runs
	// the workload to completion.
	recs, rerr := journal.Replay(dir)
	jB, err := journal.Open(dir, journal.Options{DurableSubmits: true})
	if err != nil {
		return nil, err
	}
	gB, _, err := crashGalaxy(opt, rs, nil,
		galaxy.WithJournal(jB, "h2"), galaxy.WithLeaseTTL(crashLeaseTTL))
	if err != nil {
		return nil, err
	}
	rep, err := gB.Recover(recs, rerr, galaxy.RecoverOptions{
		Datasets:     map[string]any{"nfl": rs},
		RestartDelay: crashRestartDelay,
		AdoptExpired: true,
	})
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
		fmt.Sprintf("%d Poisson arrivals, h1 killed at %v (torn tail), h2 resumes after the %v lease expires",
			len(arrivals), crashAt, crashLeaseTTL),
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
	res.Metrics["orphaned"] = float64(rep.Orphaned)
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
	// metric of this experiment is compared across runs; journal-overhead
	// and dispatch-throughput report it.)
	snapB := gB.Observer().Reg.Snapshot()
	res.Metrics["obs_resubmits"] = snapB["gyan_resubmits_total"]
	res.Metrics["obs_adoptions"] = snapB["gyan_adoptions_total"]
	res.Metrics["obs_completed_ok"] = snapB[`gyan_jobs_completed_total{state="ok"}`]

	var ch timeline.Chart
	ch.AddRecovery(rep, recEnd)
	ch.AddJobs(recovered)
	res.Text = append(res.Text,
		fmt.Sprintf("Handler h1 journals every transition and is killed at %v with a torn record on disk. "+
			"Standby h2 replays %d durable records, discards the torn tail, keeps the %d completions that reached disk, "+
			"waits out h1's %v lease and adopts the rest (%d adopted, %d requeued). The audit over every durable record "+
			"finds %d lost jobs and %d double executions; the completion set matches the uninterrupted baseline.",
			crashAt, rep.Records, rep.Completed, crashLeaseTTL, rep.Adopted, rep.Requeued, lost, doubles),
		"Failover timeline (lease trails, replay gap, and the merged job history):\n\n"+ch.Render(72))
	return res, nil
}

// overheadScale sizes the benchmark: full runs use 48 jobs and min-of-3
// trials; Quick (the test suite) halves both so the regression check stays
// cheap while gyanbench reports the real number.
func overheadScale(opt Options) (jobs, trials int) {
	if opt.Quick {
		return 24, 2
	}
	return 48, 3
}

// runJournalOverhead measures the wall-clock tax of journaling: the same
// batch of polishing jobs with the journal off vs on (DurableSubmits over
// the staged pipeline, the gyan-server production configuration). Virtual-time
// metrics are identical by construction — the journal sits outside the cost
// model — so the honest comparison is host wall-clock, min-of-3 per mode.
func runJournalOverhead(opt Options) (*Result, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	res := newResult("journal-overhead", "Wall-clock throughput with the job-state journal off vs on")
	nJobs, nTrials := overheadScale(opt)

	// batchP95 is the group-commit batch-size tail from the engine observer's
	// fsync histogram (last journaled trial, like stats).
	var batchP95 float64
	run := func(withJournal bool) (time.Duration, journal.Stats, error) {
		best := time.Duration(0)
		var stats journal.Stats
		for trial := 0; trial < nTrials; trial++ {
			var gopts []galaxy.Option
			var j *journal.Journal
			if withJournal {
				dir, err := os.MkdirTemp("", "gyan-overhead-*")
				if err != nil {
					return 0, stats, err
				}
				j, err = journal.Open(dir, journal.Options{DurableSubmits: true})
				if err != nil {
					os.RemoveAll(dir)
					return 0, stats, err
				}
				gopts = append(gopts, galaxy.WithJournal(j, "bench"))
				defer os.RemoveAll(dir)
			}
			g := galaxy.New(nil, gopts...)
			if err := g.RegisterDefaultTools(); err != nil {
				return 0, stats, err
			}
			wallStart := time.Now()
			for i := 0; i < nJobs; i++ {
				if _, err := g.Submit("racon", map[string]string{"scale": "0.001"}, rs,
					galaxy.SubmitOptions{Delay: time.Duration(i) * 100 * time.Millisecond}); err != nil {
					return 0, stats, err
				}
			}
			g.Run()
			elapsed := time.Since(wallStart)
			if j != nil {
				stats = j.Stats()
				batchP95 = g.Observer().Reg.Snapshot()["gyan_journal_fsync_batch_records_p95"]
				if err := j.Close(); err != nil {
					return 0, stats, err
				}
			}
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		return best, stats, nil
	}

	off, _, err := run(false)
	if err != nil {
		return nil, err
	}
	on, stats, err := run(true)
	if err != nil {
		return nil, err
	}
	overheadPct := (on.Seconds() - off.Seconds()) / off.Seconds() * 100

	tb := report.NewTable(
		fmt.Sprintf("%d racon jobs per mode, min of %d trials, DurableSubmits, one fsync per flusher batch",
			nJobs, nTrials),
		"mode", "wall clock", "jobs/s", "appends", "fsyncs", "bytes")
	tb.AddRow("journal off", fmt.Sprintf("%.3fs", off.Seconds()),
		fmt.Sprintf("%.1f", float64(nJobs)/off.Seconds()), "-", "-", "-")
	tb.AddRow("journal on", fmt.Sprintf("%.3fs", on.Seconds()),
		fmt.Sprintf("%.1f", float64(nJobs)/on.Seconds()),
		fmt.Sprintf("%d", stats.Appends), fmt.Sprintf("%d", stats.Syncs),
		fmt.Sprintf("%d", stats.Bytes))
	res.Tables = append(res.Tables, tb)

	res.Metrics["wall_off_s"] = off.Seconds()
	res.Metrics["wall_on_s"] = on.Seconds()
	res.Metrics["overhead_pct"] = overheadPct
	res.Metrics["jobs_per_sec_off"] = float64(nJobs) / off.Seconds()
	res.Metrics["jobs_per_sec_on"] = float64(nJobs) / on.Seconds()
	res.Metrics["journal_appends"] = float64(stats.Appends)
	res.Metrics["journal_syncs"] = float64(stats.Syncs)
	res.Metrics["journal_bytes"] = float64(stats.Bytes)
	res.Metrics["fsync_batch_p95"] = batchP95

	res.Text = append(res.Text, fmt.Sprintf(
		"Journaling appends %d records (%d bytes) across %d fsync batches for the %d-job run and costs %.1f%% wall clock. "+
			"Batched group commit keeps the durability tax under the 10%% budget: only submit acknowledgements force an fsync; "+
			"everything else rides whatever batch its shard's flusher drains next.",
		stats.Appends, stats.Bytes, stats.Syncs, nJobs, overheadPct))
	return res, nil
}
