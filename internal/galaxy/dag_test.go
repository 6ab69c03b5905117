package galaxy

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gyan/internal/sched"
	"gyan/internal/tools/racon"
	"gyan/internal/workflow"
	"gyan/internal/workload"
)

// Done reports whether the workflow reached a terminal state.
func (wr *WorkflowRun) Done() bool {
	wr.mu.Lock()
	defer wr.mu.Unlock()
	return wr.state == StateOK || wr.state == StateError
}

func TestDAGFanOutFanIn(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	wr, err := g.SubmitDAG("diamond", []DAGStep{
		{ID: "align", ToolID: "racon", Params: fastParams(), Dataset: rs},
		{ID: "call-a", ToolID: "racon", Params: fastParams(), After: []string{"align"}},
		{ID: "call-b", ToolID: "racon", Params: fastParams(), After: []string{"align"}},
		{ID: "merge", ToolID: "seqstats", After: []string{"call-a", "call-b"}},
	}, DAGOptions{User: "ada"})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if !wr.Done() || wr.State() != StateOK {
		t.Fatalf("workflow finished %s: %s", wr.State(), wr.Info())
	}

	ws := wr.Status()
	if ws.Counts[string(workflow.StepDone)] != 4 {
		t.Fatalf("step counts = %v, want 4 done", ws.Counts)
	}
	byID := map[string]StepStatus{}
	for _, st := range ws.Steps {
		byID[st.ID] = st
	}
	root := byID["align"]
	// Fan-out: both children wait for the root, then run from the same
	// release instant.
	for _, id := range []string{"call-a", "call-b"} {
		st := byID[id]
		if st.Submitted < root.Finished {
			t.Errorf("%s submitted at %v before root finished at %v",
				id, st.Submitted, root.Finished)
		}
	}
	// Fan-in: the merge waits for the slower branch.
	slowest := byID["call-a"].Finished
	if f := byID["call-b"].Finished; f > slowest {
		slowest = f
	}
	if byID["merge"].Submitted < slowest {
		t.Errorf("merge submitted at %v before both branches finished at %v",
			byID["merge"].Submitted, slowest)
	}
	// Pass-through input: children inherit the root's dataset.
	for _, id := range []string{"call-a", "call-b"} {
		job := wr.jobs[id]
		if job.Dataset != any(rs) {
			t.Errorf("%s did not inherit the root dataset", id)
		}
	}
	if wr.WallTime() <= 0 {
		t.Error("workflow wall time not recorded")
	}
}

func TestDAGFailFastSkipsPendingSteps(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	wr, err := g.SubmitDAG("fail-fast", []DAGStep{
		{ID: "a", ToolID: "racon", Params: fastParams(), Dataset: rs},
		{ID: "bad", ToolID: "racon", Params: map[string]string{"threads": "bogus"}, After: []string{"a"}},
		{ID: "good", ToolID: "seqstats", After: []string{"a"}},
		{ID: "tail", ToolID: "seqstats", After: []string{"good"}},
	}, DAGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if wr.State() != StateError {
		t.Fatalf("workflow finished %s", wr.State())
	}
	ws := wr.Status()
	// "good" released alongside "bad" (both children of the root), so it
	// completes; "tail" was still pending when the failure hit and must be
	// skipped, never submitted.
	states, jobIDs := map[string]string{}, map[string]int{}
	for _, st := range ws.Steps {
		states[st.ID] = st.State
		jobIDs[st.ID] = st.JobID
	}
	if states["bad"] != string(workflow.StepFailed) {
		t.Errorf("bad step state = %s", states["bad"])
	}
	if states["tail"] != string(workflow.StepSkipped) {
		t.Errorf("tail state = %s, want skipped", states["tail"])
	}
	if jobIDs["tail"] != 0 {
		t.Error("skipped step was submitted as a job")
	}
	if wr.Info() == "" {
		t.Error("failed workflow has no info")
	}
}

// TestDAGLocalityAwarePlacement checks the two halves of the locality model
// together: with a dominant LocalityBonus the scheduler lands a fan-in step
// on a device that already holds one parent's output, and the staging-cost
// closure therefore charges nothing.
func TestDAGLocalityAwarePlacement(t *testing.T) {
	g := schedGalaxy(t, sched.Config{LocalityBonus: 1e6})
	rs := smallReadSet(t)
	wr, err := g.SubmitDAG("local", []DAGStep{
		{ID: "align", ToolID: "racon", Params: fastParams(), Dataset: rs},
		{ID: "call", ToolID: "racon", Params: fastParams(), After: []string{"align"},
			Bytes: 16 << 30},
	}, DAGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if wr.State() != StateOK {
		t.Fatalf("workflow finished %s: %s", wr.State(), wr.Info())
	}
	parent, child := wr.jobs["align"], wr.jobs["call"]
	if len(parent.Devices) == 0 || len(child.Devices) == 0 {
		t.Fatalf("jobs did not land on GPUs: %v / %v", parent.Devices, child.Devices)
	}
	if !sharesDevice(parent, child) {
		t.Errorf("locality-aware child placed on %v, parent output on %v",
			child.Devices, parent.Devices)
	}
	if child.StageIn != 0 {
		t.Errorf("child charged %v stage-in despite local placement", child.StageIn)
	}
}

// TestDAGStageInChargedOnLocalityMiss pins the staging-cost model itself: a
// gang that misses every device holding the step's input pays the input's
// PCIe transfer, a gang that intersects pays nothing.
func TestDAGStageInChargedOnLocalityMiss(t *testing.T) {
	g := schedGalaxy(t, sched.Config{LocalityBonus: 1e6})
	rs := smallReadSet(t)
	wr, err := g.SubmitDAG("miss", []DAGStep{
		{ID: "align", ToolID: "racon", Params: fastParams(), Dataset: rs},
		{ID: "call", ToolID: "racon", Params: fastParams(), After: []string{"align"},
			Bytes: 24 << 30},
	}, DAGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if wr.State() != StateOK {
		t.Fatalf("workflow finished %s: %s", wr.State(), wr.Info())
	}
	wr.mu.Lock()
	cost := wr.stageCostLocked(wr.defs["call"])
	parentDevices := append([]int(nil), wr.jobs["align"].Devices...)
	wr.mu.Unlock()
	if cost == nil {
		t.Fatal("no staging closure for a step with bytes and GPU parents")
	}
	if d := cost(parentDevices); d != 0 {
		t.Errorf("staging on the parent's own gang charged %v", d)
	}
	if d := cost([]int{97}); d != 2*time.Second {
		t.Errorf("24 GiB over 12 GiB/s charged %v, want 2s", d)
	}
}

// TestDAGFairShareKeepsInteractiveUsersAhead is the starvation regression: a
// 1000-step batch workflow must not make an interactive user's single jobs
// wait behind the whole backlog. The scheduler's fair share orders
// the queue by accumulated GPU-seconds, so the interactive user (near-zero
// usage) overtakes the batch user's parked steps.
func TestDAGFairShareKeepsInteractiveUsersAhead(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-step workflow")
	}
	g := schedGalaxy(t, sched.Config{})
	// A deliberately tiny read set: the point is queue behavior across a
	// thousand steps, not per-step consensus quality, and the executor does
	// real work per read.
	rs, err := workload.GenerateLongReads(workload.LongReadConfig{
		Name: "tiny", Seed: 5, RefLen: 200, ReadLen: 60, Coverage: 3,
		SubRate: 0.02, InsRate: 0.03, DelRate: 0.03, BackboneErrorRate: 0.04,
		NominalBytes: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	const batchSteps = 1000
	steps := make([]DAGStep, batchSteps)
	for i := range steps {
		steps[i] = DAGStep{
			ID: fmt.Sprintf("s%d", i), ToolID: "racon",
			Params: fastParams(), Dataset: rs,
		}
	}
	wr, err := g.SubmitDAG("batch-sweep", steps, DAGOptions{User: "batch"})
	if err != nil {
		t.Fatal(err)
	}
	// The interactive user shows up after the batch queue is fully parked.
	interactive := make([]*Job, 4)
	for i := range interactive {
		interactive[i], err = g.Submit("racon", fastParams(), rs, SubmitOptions{
			User:  "ada",
			Delay: time.Duration(i+1) * 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	g.Run()
	if wr.State() != StateOK {
		t.Fatalf("batch workflow finished %s: %s", wr.State(), wr.Info())
	}
	makespan := wr.WallTime()
	for i, j := range interactive {
		if j.State != StateOK {
			t.Fatalf("interactive job %d finished %s: %s", i, j.State, j.Info)
		}
		// Waiting behind even 5% of the backlog means fair share failed;
		// in practice the wait is a couple of batch step lengths.
		if j.QueueWait() > makespan/20 {
			t.Errorf("interactive job %d waited %v behind a %v batch backlog",
				i, j.QueueWait(), makespan)
		}
	}
}

// chain wires steps into a linear workflow: step i waits for step i-1.
func chain(steps ...DAGStep) []DAGStep {
	for i := range steps {
		steps[i].ID = fmt.Sprintf("step-%d", i)
		if i > 0 {
			steps[i].After = []string{steps[i-1].ID}
		}
	}
	return steps
}

// chainJobs returns the jobs a workflow submitted, in step order.
func chainJobs(wr *WorkflowRun) []*Job {
	var out []*Job
	for _, s := range wr.dag.Steps() {
		if j := wr.jobs[s.ID]; j != nil {
			out = append(out, j)
		}
	}
	return out
}

// raconRound builds a polishing step that feeds its parent's consensus back
// in as the backbone — how Racon is actually iterated in assembly pipelines.
func raconRound(params map[string]string) DAGStep {
	return DAGStep{
		ToolID: "racon",
		Params: params,
		Transform: func(parents []*Job) (any, error) {
			prev := parents[0]
			prevRes, ok := prev.Result.Detail.(*racon.Result)
			if !ok {
				return nil, fmt.Errorf("unexpected detail %T", prev.Result.Detail)
			}
			prevSet, ok := prev.Dataset.(*workload.ReadSet)
			if !ok {
				return nil, fmt.Errorf("unexpected dataset %T", prev.Dataset)
			}
			next := *prevSet
			next.Backbone = prevRes.Consensus
			return &next, nil
		},
	}
}

func TestWorkflowIteratedPolishing(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	params := fastParams()
	wr, err := g.SubmitDAG("two-round-polish", chain(
		DAGStep{ToolID: "racon", Params: params, Dataset: rs},
		raconRound(params),
	), DAGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if !wr.Done() || wr.State() != StateOK {
		t.Fatalf("workflow state %s: %s", wr.State(), wr.Info())
	}
	jobs := chainJobs(wr)
	if len(jobs) != 2 {
		t.Fatalf("workflow ran %d jobs", len(jobs))
	}
	r1 := jobs[0].Result.Detail.(*racon.Result)
	r2 := jobs[1].Result.Detail.(*racon.Result)
	// Round 2 polishes round 1's consensus; its draft identity equals
	// round 1's polished identity, and it must not regress.
	if diff := r2.DraftIdentity - r1.PolishedIdentity; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("round 2 draft identity %.6f != round 1 polished %.6f",
			r2.DraftIdentity, r1.PolishedIdentity)
	}
	if r2.PolishedIdentity < r1.PolishedIdentity-0.002 {
		t.Errorf("second round regressed: %.4f -> %.4f",
			r1.PolishedIdentity, r2.PolishedIdentity)
	}
	// Steps run sequentially on the virtual timeline.
	if jobs[1].Started < jobs[0].Finished {
		t.Errorf("step 2 started at %v before step 1 finished at %v",
			jobs[1].Started, jobs[0].Finished)
	}
	if wr.WallTime() <= 0 {
		t.Error("workflow wall time not recorded")
	}
}

func TestWorkflowStepFailureAborts(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	wr, err := g.SubmitDAG("fails", chain(
		DAGStep{ToolID: "racon", Params: map[string]string{"threads": "bogus"}, Dataset: rs},
		raconRound(fastParams()),
	), DAGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if wr.State() != StateError {
		t.Fatalf("workflow with failing step finished %s", wr.State())
	}
	if n := len(chainJobs(wr)); n != 1 {
		t.Fatalf("failed workflow still submitted %d jobs", n)
	}
	if wr.Info() == "" {
		t.Error("failed workflow has no info")
	}
}

func TestWorkflowTransformFailureAborts(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	wr, err := g.SubmitDAG("bad-transform", chain(
		DAGStep{ToolID: "racon", Params: fastParams(), Dataset: rs},
		DAGStep{ToolID: "racon", Params: fastParams(), Transform: func([]*Job) (any, error) {
			return nil, fmt.Errorf("boom")
		}},
	), DAGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if wr.State() != StateError {
		t.Fatalf("workflow state %s", wr.State())
	}
}

func TestWorkflowValidation(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	cases := []struct {
		name  string
		steps []DAGStep
	}{
		{"empty", nil},
		{"unknown tool", []DAGStep{{ToolID: "nope", Dataset: rs}}},
		{"no first dataset", []DAGStep{{ToolID: "racon", Params: fastParams()}}},
	}
	for _, tc := range cases {
		if _, err := g.SubmitDAG(tc.name, tc.steps, DAGOptions{}); err == nil {
			t.Errorf("%s: invalid workflow accepted", tc.name)
		}
	}
}

// TestWorkflowObserversAreRaceFree is the regression for the workflow data
// race: Done/WallTime/State/Status read from foreign goroutines while
// completion hooks mutate the run under the engine lock. Run with -race.
func TestWorkflowObserversAreRaceFree(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	params := fastParams()
	wr, err := g.SubmitDAG("watched", chain(
		DAGStep{ToolID: "racon", Params: params, Dataset: rs},
		raconRound(params),
		raconRound(params),
	), DAGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var watchers sync.WaitGroup
	for i := 0; i < 4; i++ {
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				wr.Done()
				wr.WallTime()
				wr.State()
				wr.Info()
				wr.Status()
			}
		}()
	}
	g.Run()
	close(stop)
	watchers.Wait()
	if !wr.Done() || wr.State() != StateOK {
		t.Fatalf("workflow finished %s: %s", wr.State(), wr.Info())
	}
	if n := len(chainJobs(wr)); n != 3 {
		t.Fatalf("workflow ran %d jobs", n)
	}
}
