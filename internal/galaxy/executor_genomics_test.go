package galaxy

import (
	"fmt"
	"testing"

	"gyan/internal/sched"
	"gyan/internal/tools/genomics"
	"gyan/internal/workload"
)

func genomicsGalaxy(t *testing.T, opts ...Option) *Galaxy {
	t.Helper()
	g := testGalaxy(t, opts...)
	if err := g.RegisterGenomicsTools(); err != nil {
		t.Fatal(err)
	}
	return g
}

func genomicsReadSet(t *testing.T) *workload.ReadSet {
	t.Helper()
	rs, err := workload.GenerateLongReads(workload.LongReadConfig{
		Name: "wgs", Seed: 13, RefLen: 1200, ReadLen: 150, Coverage: 6,
		SubRate: 0.01, BackboneErrorRate: 0.02, NominalBytes: 20 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// detail pulls the first parent's typed result out of a Transform call.
func detail[T any](parents []*Job) (T, error) {
	var zero T
	if len(parents) == 0 || parents[0].Result == nil {
		return zero, fmt.Errorf("no upstream result")
	}
	d, ok := parents[0].Result.Detail.(T)
	if !ok {
		return zero, fmt.Errorf("upstream detail is %T", parents[0].Result.Detail)
	}
	return d, nil
}

// The genomics chain as a DAG with real dataflow: each stage consumes the
// previous stage's typed result through a Transform.
func genomicsChain(rs *workload.ReadSet) []DAGStep {
	return []DAGStep{
		{
			ID: "align", ToolID: "bwa-mem", Params: fastParams(),
			Dataset: rs, DatasetName: "wgs",
		},
		{
			ID: "call", ToolID: "variant-caller", Params: fastParams(),
			After: []string{"align"}, Bytes: 4 << 30,
			Transform: func(parents []*Job) (any, error) {
				return detail[*genomics.AlignResult](parents)
			},
		},
		{
			ID: "bqsr", ToolID: "bqsr", Params: fastParams(),
			After: []string{"call"}, Bytes: 4 << 30,
			Transform: func(parents []*Job) (any, error) {
				return detail[*genomics.CallResult](parents)
			},
		},
	}
}

// stepJob fetches a finished step's job (in-package; the engine is idle).
func stepJob(t *testing.T, wr *WorkflowRun, id string) *Job {
	t.Helper()
	wr.g.mu.Lock()
	defer wr.g.mu.Unlock()
	job := wr.jobs[id]
	if job == nil {
		t.Fatalf("step %s has no job", id)
	}
	return job
}

func TestGenomicsChainFlowsTypedResults(t *testing.T) {
	g := genomicsGalaxy(t)
	rs := genomicsReadSet(t)
	wr, err := g.SubmitDAG("wgs", genomicsChain(rs), DAGOptions{User: "ada"})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if wr.State() != StateOK {
		t.Fatalf("pipeline finished %s: %s", wr.State(), wr.Info())
	}
	bqsr := stepJob(t, wr, "bqsr")
	if bqsr.Result == nil {
		t.Fatal("bqsr step has no result")
	}
	res, ok := bqsr.Result.Detail.(*genomics.BQSRResult)
	if !ok {
		t.Fatalf("bqsr detail is %T", bqsr.Result.Detail)
	}
	// The typed chain threads one alignment through all three stages.
	if res.Called == nil || res.Called.Aligned == nil || res.Called.Aligned.Set != rs {
		t.Fatal("bqsr result does not chain back to the submitted read set")
	}
	if len(res.Called.Variants) == 0 {
		t.Error("no variants flowed through the chain")
	}
	for _, id := range []string{"align", "call", "bqsr"} {
		if !stepJob(t, wr, id).GPUEnabled {
			t.Errorf("step %s ran on CPU; all three tools are GPU-capable", id)
		}
	}
}

// A recovered step falls back to pass-through input; every downstream
// executor must accept the raw read set and rerun upstream work itself.
func TestGenomicsExecutorsAcceptPassThroughInput(t *testing.T) {
	g := genomicsGalaxy(t)
	rs := genomicsReadSet(t)
	for _, tool := range []string{"variant-caller", "bqsr"} {
		job, err := g.Submit(tool, fastParams(), rs, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g.Run()
		if job.State != StateOK {
			t.Fatalf("%s on raw read set finished %s: %s", tool, job.State, job.Info)
		}
	}
}

func TestGenomicsChainStaysDeviceLocal(t *testing.T) {
	g := genomicsGalaxy(t, WithScheduler(sched.New(sched.Config{LocalityBonus: 1e6})))
	rs := genomicsReadSet(t)
	wr, err := g.SubmitDAG("wgs", genomicsChain(rs), DAGOptions{User: "ada"})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if wr.State() != StateOK {
		t.Fatalf("pipeline finished %s: %s", wr.State(), wr.Info())
	}
	ws := wr.Status()
	byID := map[string]StepStatus{}
	for _, st := range ws.Steps {
		byID[st.ID] = st
	}
	shareAny := func(a, b []int) bool {
		for _, da := range a {
			for _, db := range b {
				if da == db {
					return true
				}
			}
		}
		return false
	}
	for _, edge := range [][2]string{{"align", "call"}, {"call", "bqsr"}} {
		up, down := byID[edge[0]], byID[edge[1]]
		if !shareAny(up.Devices, down.Devices) {
			t.Errorf("%s on %v, %s on %v: locality bonus ignored",
				edge[0], up.Devices, edge[1], down.Devices)
		}
		if down.StageIn != 0 {
			t.Errorf("%s charged %v stage-in on a local placement", edge[1], down.StageIn)
		}
	}
}
