package galaxy

import (
	"fmt"
	"sort"
	"time"

	"gyan/internal/journal"
	"gyan/internal/workflow"
)

// DAG workflow integration: SubmitDAG runs a validated internal/workflow
// graph on this Galaxy. Steps release into normal job dispatch (and so into
// the batch scheduler, when configured) as their parents complete; fan-out
// releases siblings concurrently, fan-in waits for every parent. Placement
// is dataset-locality-aware: each released step carries its parents' device
// gangs as a scheduler preference, and a staging-cost model charges the
// PCIe transfer whenever placement lands the step away from the devices
// already holding its input. Definitions are journaled (journal.TypeWorkflow)
// and member jobs carry their workflow/step identity on their submit
// records, so Recover can rebuild half-finished workflows and resume the
// remaining steps with no step lost or run twice (see recovery.go).

// transferBytesPerSec is the staging bandwidth — a PCIe 3.0 x16 link's
// practical ~12 GiB/s.
const transferBytesPerSec = 12 << 30

// DAGStep declares one step of a workflow submitted through SubmitDAG.
type DAGStep struct {
	// ID names the step within the workflow; empty IDs are assigned
	// "step-<index>" in declaration order.
	ID string
	// ToolID names the registered tool.
	ToolID string
	// After lists the step IDs this step waits for. Roots (no After) need
	// a Dataset or DatasetName of their own.
	After []string
	// Params are the step's tool parameters.
	Params map[string]string
	// Dataset is the step's input payload. Steps with parents may leave it
	// nil to inherit the first parent's payload (identity pass-through —
	// the right default for simulated tool chains), or set Transform to
	// derive it from the parents' results.
	Dataset any
	// DatasetName names the input in the engine's dataset registry
	// (RegisterDataset); it is journaled so crash recovery can re-resolve
	// the payload.
	DatasetName string
	// Bytes is the input's size, feeding the locality staging model. Zero
	// disables staging charges for the step.
	Bytes int64
	// Transform derives the step's input from its completed parents, in
	// After order. It runs under the engine lock at release time. After a
	// crash recovery the parents' Results may be gone (only journal
	// metadata survives); the step then falls back to pass-through.
	Transform func(parents []*Job) (any, error)
	// Options refine the step's submission. Delay applies to roots only;
	// User defaults to the workflow's user.
	Options SubmitOptions
}

// DAGOptions configure one SubmitDAG call.
type DAGOptions struct {
	// User owns the workflow (fair-share attribution for every step that
	// does not set its own).
	User string
}

// stepFailure records why a step failed, for the workflow's final Info.
type stepFailure struct {
	StepID string
	Msg    string
}

// WorkflowRun tracks one submitted DAG workflow. Its fields are guarded by
// the engine lock g.mu: mutations happen under it (completion hooks), and the
// accessors (State, Info, Status, WallTime) take it, so they are safe from
// any goroutine while the engine runs — but not from one that holds g.mu.
type WorkflowRun struct {
	// ID is the workflow's ordinal identifier.
	ID int
	// Name labels the workflow.
	Name string

	g *Galaxy

	dag      *workflow.DAG
	run      *workflow.Run
	defs     map[string]*DAGStep
	jobs     map[string]*Job
	stat     map[string]*StepStatus
	failures []stepFailure
	state    JobState
	info     string
	user     string
	// submitted/finished bound the workflow's virtual-time span.
	submittedAt time.Duration
	finishedAt  time.Duration
	// defRecord is the journaled definition, retained so SnapshotJournal
	// can re-emit it during compaction.
	defRecord journal.Record
}

// StepStatus is one step's observable state in a WorkflowStatus snapshot.
type StepStatus struct {
	ID    string `json:"id"`
	Tool  string `json:"tool"`
	State string `json:"state"`
	JobID int    `json:"job,omitempty"`
	Info  string `json:"info,omitempty"`

	Submitted time.Duration `json:"submitted,omitempty"`
	Started   time.Duration `json:"started,omitempty"`
	Finished  time.Duration `json:"finished,omitempty"`
	QueueWait time.Duration `json:"queue_wait,omitempty"`
	StageIn   time.Duration `json:"stage_in,omitempty"`
	Devices   []int         `json:"devices,omitempty"`
}

// WorkflowStatus is a consistent snapshot of one workflow run — safe to
// serialize while the engine is live.
type WorkflowStatus struct {
	ID    int          `json:"id"`
	Name  string       `json:"name"`
	User  string       `json:"user"`
	State JobState     `json:"state"`
	Info  string       `json:"info,omitempty"`
	Steps []StepStatus `json:"steps"`

	Submitted time.Duration  `json:"submitted"`
	Finished  time.Duration  `json:"finished,omitempty"`
	Counts    map[string]int `json:"counts"`
}

// SubmitDAG validates and submits a workflow DAG. Root steps are released
// immediately (honoring their Delay); every other step releases when its
// parents complete. Drive the engine (g.Run) to completion, or poll the
// returned run's State/Status from any goroutine.
func (g *Galaxy) SubmitDAG(name string, steps []DAGStep, opts DAGOptions) (*WorkflowRun, error) {
	defs := make(map[string]*DAGStep, len(steps))
	wsteps := make([]workflow.Step, len(steps))
	for i := range steps {
		s := steps[i]
		if s.ID == "" {
			s.ID = fmt.Sprintf("step-%d", i)
		}
		wsteps[i] = workflow.Step{
			ID:           s.ID,
			Tool:         s.ToolID,
			After:        s.After,
			Params:       s.Params,
			DatasetName:  s.DatasetName,
			HasDataset:   s.Dataset != nil,
			HasTransform: s.Transform != nil,
			Runtime:      s.Options.Runtime,
			Priority:     s.Options.Priority,
			GPUs:         s.Options.GPUs,
			EstRuntime:   s.Options.EstRuntime,
			Bytes:        s.Bytes,
		}
		defs[s.ID] = &s
	}
	dag, err := workflow.Build(name, wsteps, workflow.BuildOptions{
		HasTool: func(id string) bool { _, terr := g.Tool(id); return terr == nil },
	})
	if err != nil {
		return nil, fmt.Errorf("galaxy: %w", err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	// Every step passes the submit check before the workflow is journaled;
	// an input from Transform or a parent is checked at the step's release.
	for _, s := range wsteps {
		if err := g.tools[s.Tool].check(s.Params, defs[s.ID].Dataset); err != nil {
			return nil, fmt.Errorf("galaxy: workflow %q step %q: %w", name, s.ID, err)
		}
	}
	g.nextWF++
	wr := &WorkflowRun{
		ID:    g.nextWF,
		Name:  name,
		g:     g,
		dag:   dag,
		run:   workflow.NewRun(dag),
		defs:  defs,
		jobs:  make(map[string]*Job),
		stat:  make(map[string]*StepStatus),
		state: StateRunning,
		user:  userOrAnonymous(opts.User),
	}
	now := g.Engine.Clock().Now()
	wr.submittedAt = now
	wr.defRecord = workflowRecord(wr, now)
	g.workflows[wr.ID] = wr
	g.logJournal(wr.defRecord)
	wr.releaseLocked(now)

	// A workflow that failed before a single job was submitted (root
	// transform/submit errors) surfaces as a plain error.
	if len(wr.jobs) == 0 && wr.state == StateError {
		delete(g.workflows, wr.ID)
		return nil, fmt.Errorf("galaxy: workflow %q: %s", name, wr.info)
	}
	return wr, nil
}

// workflowRecord builds the journaled definition for a run.
func workflowRecord(wr *WorkflowRun, at time.Duration) journal.Record {
	rec := journal.Record{
		Type: journal.TypeWorkflow, At: at, Handler: wr.g.handlerID,
		Workflow: wr.ID, WFName: wr.Name, User: wr.user,
	}
	for _, s := range wr.dag.Steps() {
		rec.WFSteps = append(rec.WFSteps, journal.WFStep{
			ID: s.ID, Tool: s.Tool, After: s.After, Params: s.Params,
			Dataset: s.DatasetName, HasDataset: s.HasDataset,
			Runtime: s.Runtime, Priority: s.Priority, GPUs: s.GPUs,
			EstRuntime: s.EstRuntime, Bytes: s.Bytes,
			GPURequest: wr.defs[s.ID].Options.GPURequest,
		})
	}
	return rec
}

// releaseLocked submits every ready step, each waiting under g.mu for the
// fsync of its submit record. Caller holds g.mu.
// Resolution or submission errors fail the step (and so the run, which fails
// fast) rather than aborting the call.
func (wr *WorkflowRun) releaseLocked(now time.Duration) {
	for {
		progressed := false
		for _, id := range wr.run.Ready() {
			def := wr.defs[id]
			input, rerr := wr.resolveInputLocked(def)
			if rerr != nil {
				wr.failStepLocked(id, fmt.Sprintf("step %q input: %v", id, rerr))
				progressed = true
				continue
			}
			sopts := def.Options
			if len(def.After) > 0 {
				sopts.Delay = 0
			}
			if sopts.User == "" {
				sopts.User = wr.user
			}
			sopts.DatasetName = def.DatasetName
			sopts.preferDevices = wr.run.PreferredDevices(id)
			sopts.stageCost = wr.stageCostLocked(def)
			sopts.wfID = wr.ID
			sopts.wfStep = id
			job, tick, serr := wr.g.submitJob(def.ToolID, def.Params, input, sopts)
			if serr != nil {
				wr.failStepLocked(id, fmt.Sprintf("step %q submit: %v", id, serr))
				progressed = true
				continue
			}
			wr.g.latchJournalErrLocked(wr.g.awaitDurable(tick))
			wr.run.MarkSubmitted(id)
			wr.jobs[id] = job
			wr.stat[id] = &StepStatus{
				ID: id, Tool: def.ToolID, JobID: job.ID, Submitted: job.Submitted,
			}
			wr.attachLocked(id, job)
			progressed = true
		}
		if !progressed {
			break
		}
	}
	if wr.run.Done() {
		wr.finishLocked(now)
	}
}

// attachLocked wires a step job's completion hook back into the run.
func (wr *WorkflowRun) attachLocked(id string, job *Job) {
	job.onDone = func(j *Job) { wr.stepDone(id, j) }
}

// resolveInputLocked derives a ready step's input: Transform over the
// completed parents when set (falling back to pass-through when a recovered
// parent lost its Result), else the step's own Dataset, else the first
// parent's payload.
func (wr *WorkflowRun) resolveInputLocked(def *DAGStep) (any, error) {
	if def.Transform != nil {
		parents := make([]*Job, len(def.After))
		complete := true
		for i, p := range def.After {
			parents[i] = wr.jobs[p]
			if parents[i] == nil || parents[i].Result == nil {
				complete = false
			}
		}
		if complete {
			return def.Transform(parents)
		}
	}
	if def.Dataset != nil {
		return def.Dataset, nil
	}
	for _, p := range def.After {
		if pj := wr.jobs[p]; pj != nil && pj.Dataset != nil {
			return pj.Dataset, nil
		}
	}
	return nil, nil
}

// stageCostLocked builds a step's staging-cost closure: zero when the
// granted gang intersects the devices already holding the input, else the
// input's PCIe transfer time. Steps whose input lives on the host (root
// steps, CPU parents) charge nothing — host-to-device movement is part of
// every tool's cost model already; this models the avoidable hop.
func (wr *WorkflowRun) stageCostLocked(def *DAGStep) func([]int) time.Duration {
	if def.Bytes <= 0 {
		return nil
	}
	upstream := wr.run.PreferredDevices(def.ID)
	if len(upstream) == 0 {
		return nil
	}
	resident := make(map[int]bool, len(upstream))
	for _, d := range upstream {
		resident[d] = true
	}
	bytes := def.Bytes
	return func(devices []int) time.Duration {
		for _, d := range devices {
			if resident[d] {
				return 0
			}
		}
		return time.Duration(float64(bytes) / transferBytesPerSec * float64(time.Second))
	}
}

// failStepLocked fails a step before it produced a job (input resolution or
// submission error).
func (wr *WorkflowRun) failStepLocked(id, msg string) {
	wr.failures = append(wr.failures, stepFailure{StepID: id, Msg: msg})
	st := wr.stat[id]
	if st == nil {
		def := wr.defs[id]
		st = &StepStatus{ID: id, Tool: def.ToolID}
		wr.stat[id] = st
	}
	st.Info = msg
	wr.run.Complete(id, false, nil)
}

// stepDone is the completion hook for one step's job; it runs under g.mu.
func (wr *WorkflowRun) stepDone(id string, job *Job) {
	if wr.run.State(id).Terminal() {
		// A second terminal transition for the same step (an admin
		// resubmit of its dead-lettered job) must not flip the verdict.
		return
	}
	ok := job.State == StateOK
	var devices []int
	if ok && job.GPUEnabled {
		devices = job.Devices
	}
	wr.run.Complete(id, ok, devices)
	if st := wr.stat[id]; st != nil {
		st.Submitted = job.Submitted
		st.Started = job.Started
		st.Finished = job.Finished
		st.QueueWait = job.QueueWait()
		st.StageIn = job.StageIn
		st.Devices = append([]int(nil), job.Devices...)
		st.Info = job.Info
	}
	if !ok {
		wr.failures = append(wr.failures, stepFailure{
			StepID: id,
			Msg:    fmt.Sprintf("step %q (%s) failed: %s", id, job.ToolID, job.Info),
		})
	}
	wr.releaseLocked(job.Finished)
}

// finishLocked settles the workflow's terminal state. Caller holds g.mu.
func (wr *WorkflowRun) finishLocked(now time.Duration) {
	if wr.state != StateRunning {
		return
	}
	counts := wr.run.Counts()
	if wr.run.Failed() {
		wr.state = StateError
		info := "workflow failed"
		if len(wr.failures) > 0 {
			info = wr.failures[0].Msg
		}
		if n := counts[workflow.StepSkipped]; n > 0 {
			info = fmt.Sprintf("%s (%d step(s) skipped)", info, n)
		}
		wr.info = info
	} else {
		wr.state = StateOK
	}
	wr.finishedAt = now
	// The completion record carries no job ID: replay derives workflow
	// state from the member steps, but the observer counts it live.
	wr.g.logJournal(journal.Record{
		Type: journal.TypeComplete, At: now, Workflow: wr.ID,
		State: string(wr.state), Msg: wr.info,
	})
}

// State returns the workflow's lifecycle state.
func (wr *WorkflowRun) State() JobState {
	wr.g.mu.Lock()
	defer wr.g.mu.Unlock()
	return wr.state
}

// Info returns the failure description ("" while running or on success).
func (wr *WorkflowRun) Info() string {
	wr.g.mu.Lock()
	defer wr.g.mu.Unlock()
	return wr.info
}

// WallTime returns the workflow's virtual span from submission to the last
// step's completion (zero until done).
func (wr *WorkflowRun) WallTime() time.Duration {
	wr.g.mu.Lock()
	defer wr.g.mu.Unlock()
	if wr.state != StateOK && wr.state != StateError {
		return 0
	}
	return wr.finishedAt - wr.submittedAt
}

// Status returns a consistent snapshot of the run, safe while the engine is
// live: step timings come from the run's own bookkeeping (copied at each
// step's completion under the engine lock), never from live job pointers.
func (wr *WorkflowRun) Status() WorkflowStatus {
	wr.g.mu.Lock()
	defer wr.g.mu.Unlock()
	ws := WorkflowStatus{
		ID: wr.ID, Name: wr.Name, User: wr.user, State: wr.state,
		Info:      wr.info,
		Submitted: wr.submittedAt, Finished: wr.finishedAt,
		Counts: make(map[string]int),
	}
	for _, s := range wr.dag.Steps() {
		state := wr.run.State(s.ID)
		ws.Counts[string(state)]++
		st := StepStatus{ID: s.ID, Tool: s.Tool, State: string(state)}
		if rec := wr.stat[s.ID]; rec != nil {
			st = *rec
			st.State = string(state)
			st.Devices = append([]int(nil), rec.Devices...)
		}
		ws.Steps = append(ws.Steps, st)
	}
	return ws
}

// Workflows returns the live workflow runs in ID order.
func (g *Galaxy) Workflows() []*WorkflowRun {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*WorkflowRun, 0, len(g.workflows))
	for _, wr := range g.workflows {
		out = append(out, wr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WorkflowByID returns one workflow run, or nil.
func (g *Galaxy) WorkflowByID(id int) *WorkflowRun {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.workflows[id]
}
