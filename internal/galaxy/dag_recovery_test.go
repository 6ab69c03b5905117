package galaxy

import (
	"testing"
	"time"

	"gyan/internal/journal"
	"gyan/internal/sched"
	"gyan/internal/workflow"
)

// pipelineSteps is the 3-stage test pipeline: align fans out to two caller
// shards, which fan back into a merge.
func pipelineSteps(rs any) []DAGStep {
	return []DAGStep{
		{ID: "align", ToolID: "racon", Params: fastParams(), Dataset: rs, DatasetName: "reads"},
		{ID: "call-a", ToolID: "racon", Params: fastParams(), After: []string{"align"}},
		{ID: "call-b", ToolID: "racon", Params: fastParams(), After: []string{"align"}},
		{ID: "merge", ToolID: "seqstats", After: []string{"call-a", "call-b"}},
	}
}

// stepSubmits folds a journal into job IDs per workflow step, to audit
// exactly-once submission across a crash.
func stepSubmits(recs []journal.Record) map[string][]int {
	out := make(map[string][]int)
	for _, rec := range recs {
		if rec.Type == journal.TypeSubmit && rec.Workflow != 0 {
			out[rec.Step] = append(out[rec.Step], rec.Job)
		}
	}
	return out
}

func TestCrashMidWorkflowResumesExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	g := testGalaxy(t, WithJournal(j, "h1"), WithLeaseTTL(10*time.Second))
	rs := smallReadSet(t)
	wr, err := g.SubmitDAG("pipeline", pipelineSteps(rs), DAGOptions{User: "ada"})
	if err != nil {
		t.Fatal(err)
	}

	// Advance virtual time until the root is done but the workflow is not:
	// the crash lands with the caller shards in flight and the merge still
	// pending.
	var crashed bool
	for at := 50 * time.Millisecond; at < time.Hour; at += 50 * time.Millisecond {
		g.Engine.RunUntil(at)
		ws := wr.Status()
		var alignDone bool
		for _, st := range ws.Steps {
			if st.ID == "align" && st.State == string(workflow.StepDone) {
				alignDone = true
			}
		}
		if alignDone && !wr.Done() {
			crashed = true
			break
		}
		if wr.Done() {
			t.Fatal("workflow finished before a mid-flight crash point was found")
		}
	}
	if !crashed {
		t.Fatal("no crash point found")
	}
	preStatus := wr.Status()
	preSubmitted := map[string]time.Duration{}
	preJobID := map[string]int{}
	for _, st := range preStatus.Steps {
		if st.JobID != 0 {
			preSubmitted[st.ID] = st.Submitted
			preJobID[st.ID] = st.JobID
		}
	}
	// Make the pre-crash history durable, then crash with a torn write: the
	// root's completion survives, the in-flight callers do not complete.
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.CrashTorn([]byte{0x17, 0x00, 0x00, 0x00, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}

	recs, rerr := replayDir(t, dir)
	if rerr == nil {
		t.Fatal("torn tail replayed clean")
	}
	j2 := openTestJournal(t, dir)
	g2 := testGalaxy(t, WithJournal(j2, "h1"), WithLeaseTTL(10*time.Second))
	rep, err := g2.Recover(recs, rerr, RecoverOptions{
		Datasets:     map[string]any{"reads": rs},
		RestartDelay: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workflows != 1 {
		t.Fatalf("rebuilt %d workflows, want 1", rep.Workflows)
	}
	if rep.WorkflowStepsResumed == 0 {
		t.Fatal("no workflow steps resumed")
	}
	wr2 := g2.WorkflowByID(wr.ID)
	if wr2 == nil {
		t.Fatal("recovered galaxy has no workflow")
	}
	if wr2.Done() {
		t.Fatalf("half-finished workflow recovered as %s", wr2.State())
	}

	g2.Run()
	if wr2.State() != StateOK {
		t.Fatalf("resumed workflow finished %s: %s", wr2.State(), wr2.Info())
	}
	ws := wr2.Status()
	for _, st := range ws.Steps {
		if st.State != string(workflow.StepDone) {
			t.Errorf("step %s finished %s", st.ID, st.State) // 0 lost steps
		}
		if st.JobID == 0 {
			t.Errorf("step %s has no job after resume", st.ID)
		}
		// Seniority: a step submitted before the crash keeps its original
		// submission time and job through the requeue.
		if pre, ok := preSubmitted[st.ID]; ok {
			if st.Submitted != pre {
				t.Errorf("step %s submitted-at changed %v -> %v across recovery",
					st.ID, pre, st.Submitted)
			}
			if st.JobID != preJobID[st.ID] {
				t.Errorf("step %s job changed %d -> %d across recovery",
					st.ID, preJobID[st.ID], st.JobID)
			}
		}
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Exactly-once audit over the full journal: every step was submitted as
	// exactly one job (0 duplicated), and every step's job completed ok
	// exactly once. The torn tail stays isolated in its pre-crash segment
	// (appends after reopen go to fresh segments), so the final replay still
	// reports it; the records around it are all there.
	final, rerr := replayDir(t, dir)
	if rerr == nil {
		t.Fatal("torn pre-crash segment no longer reported")
	}
	submits := stepSubmits(final)
	jobStep := map[int]string{}
	for _, step := range []string{"align", "call-a", "call-b", "merge"} {
		ids := submits[step]
		if len(ids) != 1 {
			t.Fatalf("step %s submitted as jobs %v, want exactly one", step, ids)
		}
		jobStep[ids[0]] = step
	}
	okCompletes := map[string]int{}
	for _, rec := range final {
		if rec.Type == journal.TypeComplete && rec.Job != 0 && rec.State == string(StateOK) {
			if step, ok := jobStep[rec.Job]; ok {
				okCompletes[step]++
			}
		}
	}
	for step, n := range okCompletes {
		if n != 1 {
			t.Errorf("step %s has %d ok completions, want 1", step, n)
		}
	}
	if len(okCompletes) != 4 {
		t.Errorf("ok completions for %d steps, want 4", len(okCompletes))
	}
}

func TestRecoverRestoresFinishedWorkflowAndSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	g := testGalaxy(t, WithJournal(j, "h1"))
	rs := smallReadSet(t)
	wr, err := g.SubmitDAG("pipeline", pipelineSteps(rs), DAGOptions{User: "ada"})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if wr.State() != StateOK {
		t.Fatalf("workflow finished %s: %s", wr.State(), wr.Info())
	}
	// Compact: the snapshot must re-emit the definition and the verdict.
	if err := g.SnapshotJournal(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, rerr := replayDir(t, dir)
	if rerr != nil {
		t.Fatalf("compacted journal corrupt: %v", rerr)
	}
	j2 := openTestJournal(t, dir)
	defer j2.Close()
	g2 := testGalaxy(t, WithJournal(j2, "h1"))
	rep, err := g2.Recover(recs, rerr, RecoverOptions{
		Datasets:     map[string]any{"reads": rs},
		RestartDelay: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workflows != 1 || rep.WorkflowStepsResumed != 0 {
		t.Fatalf("report workflows/resumed = %d/%d, want 1/0",
			rep.Workflows, rep.WorkflowStepsResumed)
	}
	wr2 := g2.WorkflowByID(wr.ID)
	if wr2 == nil {
		t.Fatal("compacted recovery lost the workflow")
	}
	if wr2.State() != StateOK || wr2.WallTime() != wr.WallTime() {
		t.Fatalf("recovered workflow state %s wall %v, want ok %v",
			wr2.State(), wr2.WallTime(), wr.WallTime())
	}
	ws := wr2.Status()
	if ws.Counts[string(workflow.StepDone)] != 4 {
		t.Fatalf("recovered step counts = %v", ws.Counts)
	}
	// Nothing should move on a fully-restored terminal workflow.
	g2.Run()
	if n := len(g2.Jobs()); n != 4 {
		t.Fatalf("recovered galaxy has %d jobs, want 4", n)
	}
}

// pr22Journal is the head of a journal as the commit before PR 23 wrote it
// (payloads copied from a run of that commit): job 1 is evicted once for job
// 2 — a preempt record, a second start at a bumped epoch — and workflow 1 was
// submitted with the continue_branches policy and an in-flight cap of 1, so
// only its first root is out when the stream ends, mid-run.
var pr22Journal = []string{
	`{"t":"lease","at":0,"h":"h1","k":1099511627777,"ttl":30000000000}`,
	`{"t":"submit","at":0,"h":"h1","k":1099511627778,"job":1,"tool":"racon","user":"hog","params":{"scale":"0.01"},"dataset":"reads","gpus":2}`,
	`{"t":"submit","at":0,"h":"h1","k":1099511627779,"job":2,"tool":"racon","user":"urgent","params":{"scale":"0.001"},"dataset":"reads","priority":1,"delay":1000000}`,
	`{"t":"map","at":0,"h":"h1","k":1099511627780,"job":1,"dest":"local_gpu","gpu":true,"devices":[0,1],"msg":"pid policy: no device preference; using available GPU(s) [0 1]"}`,
	`{"t":"start","at":0,"h":"h1","k":1099511627781,"job":1,"dest":"local_gpu","gpu":true,"devices":[0,1],"epoch":1}`,
	`{"t":"map","at":1000000,"h":"h1","k":1099511627782,"job":2,"dest":"local_gpu","gpu":true,"devices":[0,1],"msg":"pid policy: no device preference; all GPUs busy, scattering across all devices"}`,
	`{"t":"preempt","at":101000000,"h":"h1","k":1099511627783,"job":1,"msg":"preempted for job 2 (priority 1 \u003e 0, waited 100ms)"}`,
	`{"t":"start","at":101000000,"h":"h1","k":1099511627784,"job":2,"dest":"local_gpu","gpu":true,"devices":[0],"epoch":1}`,
	`{"t":"complete","at":403989680,"h":"h1","k":1099511627785,"job":2,"epoch":1,"state":"ok"}`,
	`{"t":"start","at":403989680,"h":"h1","k":1099511627786,"job":1,"dest":"local_gpu","gpu":true,"devices":[0,1],"epoch":3}`,
	`{"t":"complete","at":2106600131,"h":"h1","k":1099511627787,"job":1,"epoch":3,"state":"ok"}`,
	`{"t":"workflow","at":2106600131,"h":"h1","k":1099511627788,"user":"ada","wf":1,"wf_name":"old","wf_policy":"continue_branches","wf_max_in_flight":1,"wf_steps":[{"id":"a","tool":"racon","params":{"scale":"0.001"},"dataset":"reads","has_dataset":true},{"id":"b","tool":"racon","params":{"scale":"0.01"},"dataset":"reads","has_dataset":true},{"id":"c","tool":"racon","after":["a"],"params":{"threads":"bogus"}},{"id":"d","tool":"seqstats","after":["b"]}]}`,
	`{"t":"submit","at":2106600131,"h":"h1","k":1099511627789,"job":3,"tool":"racon","user":"ada","params":{"scale":"0.001"},"dataset":"reads","submitted":2106600131,"wf":1,"step":"a"}`,
	`{"t":"map","at":2106600131,"h":"h1","k":1099511627790,"job":3,"dest":"local_gpu","gpu":true,"devices":[0,1],"msg":"pid policy: no device preference; using available GPU(s) [0 1]"}`,
	`{"t":"start","at":2106600131,"h":"h1","k":1099511627791,"job":3,"dest":"local_gpu","gpu":true,"devices":[0],"epoch":1}`,
}

// TestRecoverOldJournalResumesFailFastUncapped recovers that directory: the
// retired preempt kind and the retired wf_policy / wf_max_in_flight fields
// cost nothing, and the workflow resumes under the one policy there is.
// Uncapped: root b is released at the resumed instant, beside the requeued a
// (the old cap held it back until a finished). Fail-fast: c's failure skips
// d, which is no descendant of c (continue_branches ran it).
func TestRecoverOldJournalResumesFailFastUncapped(t *testing.T) {
	dir := writeFlatJournal(t, pr22Journal)
	recs, rerr := replayDir(t, dir)
	if rerr != nil || len(recs) != len(pr22Journal) {
		t.Fatalf("replayed %d of %d records: %v", len(recs), len(pr22Journal), rerr)
	}
	j := openTestJournal(t, dir)
	defer j.Close()
	g := schedGalaxy(t, sched.Config{}, WithJournal(j, "h1"))
	rs := smallReadSet(t)
	rep, err := g.Recover(recs, rerr, RecoverOptions{
		Datasets: map[string]any{"reads": rs}, RestartDelay: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workflows != 1 || rep.WorkflowStepsResumed != 2 {
		t.Fatalf("report workflows/resumed = %d/%d, want 1/2 (a requeued, b released)",
			rep.Workflows, rep.WorkflowStepsResumed)
	}
	if hog, ok := g.Job(1); !ok || hog.State != StateOK {
		t.Fatalf("the once-preempted job recovered as %+v, want ok", hog)
	}
	g.Run()

	wr := g.WorkflowByID(1)
	if wr == nil || wr.State() != StateError {
		t.Fatalf("recovered workflow = %v, want a failed run", wr)
	}
	steps := map[string]StepStatus{}
	for _, st := range wr.Status().Steps {
		steps[st.ID] = st
	}
	want := map[string]workflow.StepState{
		"a": workflow.StepDone, "b": workflow.StepDone,
		"c": workflow.StepFailed, "d": workflow.StepSkipped,
	}
	for id, state := range want {
		if steps[id].State != string(state) {
			t.Errorf("step %s is %s, want %s", id, steps[id].State, state)
		}
	}
	if a, b := steps["a"], steps["b"]; b.Submitted != rep.ResumedAt || b.Submitted >= a.Finished {
		t.Errorf("b submitted at %v (resumed %v), a finished %v: the retired cap still held b back",
			b.Submitted, rep.ResumedAt, a.Finished)
	}
}
