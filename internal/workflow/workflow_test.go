package workflow

import (
	"reflect"
	"strings"
	"testing"
)

// step is a shorthand constructor: roots get a dataset so validation is
// exercised on structure, not inputs.
func step(id string, after ...string) Step {
	s := Step{ID: id, Tool: "racon", After: after}
	if len(after) == 0 {
		s.HasDataset = true
	}
	return s
}

func TestBuildValidation(t *testing.T) {
	hasTool := func(id string) bool { return id == "racon" || id == "bonito" }
	cases := []struct {
		name    string
		steps   []Step
		opts    BuildOptions
		wantErr string
	}{
		{name: "empty workflow", steps: nil, wantErr: "has no steps"},
		{name: "empty step id", steps: []Step{{Tool: "racon", HasDataset: true}}, wantErr: "empty ID"},
		{
			name:    "duplicate step id",
			steps:   []Step{step("a"), step("a")},
			wantErr: `duplicate step ID "a"`,
		},
		{
			name:    "edge to unknown step",
			steps:   []Step{step("a"), step("b", "ghost")},
			wantErr: `depends on unknown step "ghost"`,
		},
		{
			name:    "self edge",
			steps:   []Step{step("a", "a")},
			wantErr: "depends on itself",
		},
		{
			name:    "duplicate parent",
			steps:   []Step{step("a"), step("b", "a", "a")},
			wantErr: `lists parent "a" twice`,
		},
		{
			name:    "two-step cycle",
			steps:   []Step{step("a", "b"), step("b", "a")},
			wantErr: "dependency cycle",
		},
		{
			name: "long cycle behind a valid prefix",
			steps: []Step{
				step("root"), step("x", "root", "z"), step("y", "x"), step("z", "y"),
			},
			wantErr: "dependency cycle",
		},
		{
			name:    "root with neither dataset nor edge",
			steps:   []Step{{ID: "a", Tool: "racon"}},
			wantErr: "neither dataset nor upstream edge",
		},
		{
			name:    "transform on a root",
			steps:   []Step{{ID: "a", Tool: "racon", HasDataset: true, HasTransform: true, After: nil}},
			wantErr: "transform but no upstream edge",
		},
		{
			name:    "missing tool",
			steps:   []Step{{ID: "a", Tool: "bwa", HasDataset: true}},
			opts:    BuildOptions{HasTool: hasTool},
			wantErr: `tool "bwa" not installed`,
		},
		{
			name:  "valid diamond",
			steps: []Step{step("a"), step("b", "a"), step("c", "a"), step("d", "b", "c")},
		},
		{
			name: "valid named-dataset root",
			steps: []Step{
				{ID: "a", Tool: "racon", DatasetName: "reads"},
				step("b", "a"),
			},
			opts: BuildOptions{HasTool: hasTool},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Build("wf", tc.steps, tc.opts)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				if d.Len() != len(tc.steps) {
					t.Fatalf("Len = %d, want %d", d.Len(), len(tc.steps))
				}
				return
			}
			if err == nil {
				t.Fatalf("Build succeeded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	d, err := Build("wf", []Step{
		step("d", "b", "c"), step("b", "a"), step("c", "a"), step("a"),
	}, BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	pos := make(map[string]int)
	for i, id := range d.Topo() {
		pos[id] = i
	}
	for _, s := range d.Steps() {
		for _, p := range s.After {
			if pos[p] >= pos[s.ID] {
				t.Fatalf("topo places %q (parent) after %q: %v", p, s.ID, d.Topo())
			}
		}
	}
}

func TestRunFanOutFanIn(t *testing.T) {
	d, err := Build("diamond", []Step{
		step("a"), step("b", "a"), step("c", "a"), step("d", "b", "c"),
	}, BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	r := NewRun(d)
	if got := r.Ready(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("initial ready = %v, want [a]", got)
	}
	r.MarkSubmitted("a")
	ready, skipped := r.Complete("a", true, []int{0})
	if !reflect.DeepEqual(ready, []string{"b", "c"}) || skipped != nil {
		t.Fatalf("after a: ready=%v skipped=%v", ready, skipped)
	}
	r.MarkSubmitted("b")
	r.MarkSubmitted("c")
	// Fan-in: d must not fire until BOTH parents are done.
	ready, _ = r.Complete("b", true, []int{0})
	if len(ready) != 0 {
		t.Fatalf("d released with only one parent done: %v", ready)
	}
	ready, _ = r.Complete("c", true, []int{1})
	if !reflect.DeepEqual(ready, []string{"d"}) {
		t.Fatalf("after b+c: ready=%v, want [d]", ready)
	}
	// Locality: d's preferred devices are the union of its parents'.
	if got := r.PreferredDevices("d"); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("PreferredDevices(d) = %v, want [0 1]", got)
	}
	r.MarkSubmitted("d")
	if r.Done() {
		t.Fatal("Done before d completed")
	}
	r.Complete("d", true, nil)
	if !r.Done() || r.Failed() {
		t.Fatalf("Done=%v Failed=%v after full run", r.Done(), r.Failed())
	}
}

func TestRunFailFastSkipsEverythingPending(t *testing.T) {
	d, err := Build("wf", []Step{
		step("a"), step("b"), step("c", "a"), step("d", "b"),
	}, BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	r := NewRun(d)
	r.MarkSubmitted("a")
	r.MarkSubmitted("b")
	ready, skipped := r.Complete("a", false, nil)
	if len(ready) != 0 {
		t.Fatalf("failure released steps: %v", ready)
	}
	// c and d were pending/ready and must be skipped; b is in flight and
	// keeps running.
	if !reflect.DeepEqual(skipped, []string{"c", "d"}) {
		t.Fatalf("skipped = %v, want [c d]", skipped)
	}
	if r.State("b") != StepSubmitted {
		t.Fatalf("in-flight sibling state = %q, want submitted", r.State("b"))
	}
	if r.Done() {
		t.Fatal("Done with b still in flight")
	}
	ready, _ = r.Complete("b", true, nil)
	if len(ready) != 0 {
		t.Fatalf("post-failure completion released steps: %v", ready)
	}
	if !r.Done() || !r.Failed() {
		t.Fatalf("Done=%v Failed=%v", r.Done(), r.Failed())
	}
}

func TestCompleteIsIdempotentOnTerminalSteps(t *testing.T) {
	d, err := Build("wf", []Step{step("a"), step("b", "a")}, BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	r := NewRun(d)
	r.MarkSubmitted("a")
	r.Complete("a", false, nil)
	// A late duplicate completion (e.g. an admin resubmit of the failed
	// job) must not flip the verdict or resurrect skipped steps.
	ready, skipped := r.Complete("a", true, []int{0})
	if ready != nil || skipped != nil {
		t.Fatalf("duplicate completion had effects: ready=%v skipped=%v", ready, skipped)
	}
	if r.State("a") != StepFailed || !r.Failed() {
		t.Fatalf("verdict flipped: state=%q failed=%v", r.State("a"), r.Failed())
	}
}
