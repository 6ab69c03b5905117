package galaxy

import (
	"fmt"
	"time"

	"gyan/internal/journal"
	"gyan/internal/workflow"
)

// Workflow crash recovery. Recover folds journal.TypeWorkflow records back
// into WorkflowRuns: each definition is re-validated and re-built, member
// jobs (matched by the workflow/step identity on their submit records) are
// folded into the run's step states, completion hooks are reattached to the
// jobs Recover requeued, and steps whose parents finished before the crash
// are released at the resumed time. Exactly-once holds step by step: a step
// whose job completed is folded as done and never resubmitted, a step whose
// job was in flight rides that job's requeue (one job, one step), and a
// step never submitted gets its first job now.
//
// Two things deliberately do not survive: Transform closures (code cannot
// be journaled; recovered steps fall back to pass-through input) and device
// residency (GPU memory does not outlive a crash, so recovered steps carry
// no locality preference and pay no staging charge — their input is coming
// from host storage either way).

// rebuildWorkflowsLocked rebuilds every journaled workflow. Caller holds
// g.mu; jobs have already been materialized and requeued.
func (g *Galaxy) rebuildWorkflowsLocked(hist *journal.History, rep *RecoveryReport, now time.Duration) {
	// Index the materialized jobs by workflow/step identity.
	members := make(map[int]map[string]*Job)
	for _, j := range g.jobsLocked() {
		if j.WorkflowID == 0 || j.StepID == "" {
			continue
		}
		m := members[j.WorkflowID]
		if m == nil {
			m = make(map[string]*Job)
			members[j.WorkflowID] = m
		}
		m[j.StepID] = j
	}

	for _, id := range hist.WorkflowOrder {
		rec := hist.Workflows[id]
		g.nextWF = max(g.nextWF, id)
		wr, resumed, err := g.rebuildWorkflowLocked(rec, hist.Verdicts, members[id], now)
		if err != nil {
			// The definition no longer builds (a tool was uninstalled
			// across the restart). Surface it as a failed run rather than
			// silently dropping acknowledged work.
			wr = &WorkflowRun{
				ID: id, Name: rec.WFName, g: g,
				state: StateError, info: fmt.Sprintf("unrecoverable: %v", err),
				user: userOrAnonymous(rec.User),
				defs: map[string]*DAGStep{}, jobs: map[string]*Job{},
				stat:        map[string]*StepStatus{},
				submittedAt: rec.At, finishedAt: now,
			}
		}
		g.workflows[id] = wr
		rep.Workflows++
		rep.WorkflowStepsResumed += resumed
	}
}

// rebuildWorkflowLocked reconstructs one run from its definition record.
func (g *Galaxy) rebuildWorkflowLocked(rec journal.Record, terms map[int]journal.Record,
	jobs map[string]*Job, now time.Duration) (*WorkflowRun, int, error) {
	defs := make(map[string]*DAGStep, len(rec.WFSteps))
	wsteps := make([]workflow.Step, len(rec.WFSteps))
	for i, s := range rec.WFSteps {
		ds := &DAGStep{
			ID: s.ID, ToolID: s.Tool, After: s.After, Params: s.Params,
			DatasetName: s.Dataset, Bytes: s.Bytes,
			Options: SubmitOptions{
				Runtime: s.Runtime, GPURequest: s.GPURequest, Priority: s.Priority,
				GPUs: s.GPUs, EstRuntime: s.EstRuntime,
			},
		}
		if s.Dataset != "" {
			// The payload itself is not journaled; re-resolve it from the
			// registry. A root whose dataset is gone fails at release, like
			// a requeued job.
			ds.Dataset = g.datasets[s.Dataset]
		}
		defs[s.ID] = ds
		wsteps[i] = workflow.Step{
			ID: s.ID, Tool: s.Tool, After: s.After, Params: s.Params,
			DatasetName: s.Dataset, HasDataset: s.HasDataset,
			Runtime: s.Runtime, Priority: s.Priority, GPUs: s.GPUs,
			EstRuntime: s.EstRuntime, Bytes: s.Bytes,
		}
	}
	dag, err := workflow.Build(rec.WFName, wsteps, workflow.BuildOptions{
		HasTool: func(tid string) bool { _, terr := g.toolLocked(tid); return terr == nil },
	})
	if err != nil {
		return nil, 0, err
	}
	wr := &WorkflowRun{
		ID: rec.Workflow, Name: rec.WFName, g: g,
		dag: dag, run: workflow.NewRun(dag),
		defs: defs, jobs: make(map[string]*Job), stat: make(map[string]*StepStatus),
		state: StateRunning, user: userOrAnonymous(rec.User),
		submittedAt: rec.At,
	}

	// Fold the member jobs into the run's step states, in three passes over
	// topological order. Successes first: completing a parent is what makes
	// a child's MarkSubmitted legal, and a fail-fast skip applied too early
	// would mask a sibling that really finished before the crash.
	for _, id := range dag.Topo() {
		job := jobs[id]
		if job == nil {
			continue
		}
		wr.jobs[id] = job
		wr.run.MarkSubmitted(id)
		st := &StepStatus{ID: id, Tool: job.ToolID, JobID: job.ID, Submitted: job.Submitted}
		wr.stat[id] = st
		if job.State != StateOK {
			continue
		}
		var devices []int
		if job.GPUEnabled {
			devices = job.Devices
		}
		wr.run.Complete(id, true, devices)
		st.Started, st.Finished = job.Started, job.Finished
		st.QueueWait, st.StageIn = job.QueueWait(), job.StageIn
		st.Devices = append([]int(nil), job.Devices...)
		st.Info = job.Info
	}
	for _, id := range dag.Topo() {
		job := wr.jobs[id]
		if job == nil || !job.Done() || job.State == StateOK {
			continue
		}
		wr.run.Complete(id, false, nil)
		st := wr.stat[id]
		st.Started, st.Finished, st.Info = job.Started, job.Finished, job.Info
		wr.failures = append(wr.failures, stepFailure{
			StepID: id,
			Msg:    fmt.Sprintf("step %q (%s) failed: %s", id, job.ToolID, job.Info),
		})
	}
	resumed := 0
	for _, id := range dag.Topo() {
		job := wr.jobs[id]
		if job == nil || job.Done() {
			continue
		}
		// The job is back in flight (requeued by Recover); its completion
		// resumes the graph. Requeued steps whose input flowed from a parent
		// re-resolve it here — the requeue event has not fired yet, so the
		// payload lands in time.
		if job.Dataset == nil {
			if input, rerr := wr.resolveInputLocked(wr.defs[id]); rerr == nil {
				job.Dataset = input
			}
		}
		resumed++
		wr.attachLocked(id, job)
	}

	if term, done := terms[wr.ID]; done {
		// The workflow's verdict was journaled before the crash; restore it
		// rather than re-deriving (and re-logging) it.
		wr.applyVerdict(term)
	} else {
		before := len(wr.jobs)
		wr.releaseLocked(now)
		resumed += len(wr.jobs) - before
	}
	return wr, resumed, nil
}
