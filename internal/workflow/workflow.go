// Package workflow models multi-tool Galaxy pipelines as typed DAGs of tool
// steps wired by dataset dependencies. The paper's unit of work is "a single
// tool instance or a workflow consisting of a sequence of multiple tools"
// (Section II-A); this package generalizes the repo's linear chain to full
// fan-out/fan-in graphs.
//
// The package is deliberately engine-free: it knows nothing about galaxy
// jobs, the batch scheduler or the journal. Build validates a declarative
// step list into a DAG (duplicate IDs, dangling edges, cycles, input-less
// roots, unknown tools); Run is the pure ready-set state machine the
// integration layer (internal/galaxy's SubmitDAG) drives — it tracks which
// steps are releasable as their parents complete, fails fast (the first
// failure skips everything not yet released), and remembers where each
// completed step's output lives so placement can prefer those devices. Keeping the state machine pure makes
// it trivially testable and fuzzable, and lets crash recovery rebuild a
// half-finished workflow by replaying completions into a fresh Run.
package workflow

import (
	"fmt"
	"sort"
	"time"
)

// Step declares one node of a workflow DAG.
type Step struct {
	// ID names the step within its workflow; unique, non-empty.
	ID string
	// Tool names the registered tool the step runs.
	Tool string
	// After lists the step IDs this step depends on. A step with no After
	// entries is a root and must have an input of its own (see HasDataset
	// and DatasetName); a step with parents may inherit its first parent's
	// output as input.
	After []string
	// Params are the step's tool parameters.
	Params map[string]string
	// DatasetName names the step's input in the server's dataset registry
	// (journaled so crash recovery can re-resolve the payload).
	DatasetName string
	// HasDataset marks a step whose caller supplies an in-memory input
	// payload; validation treats it as having an input even without a
	// DatasetName.
	HasDataset bool
	// HasTransform marks a step that derives its input from its parents'
	// results at release time.
	HasTransform bool
	// Runtime forces containerized execution ("docker"/"singularity").
	Runtime string
	// Priority, GPUs and EstRuntime pass through to the batch scheduler.
	Priority   int
	GPUs       int
	EstRuntime time.Duration
	// Bytes is the size of the step's input dataset, feeding the locality
	// staging model (moving Bytes across PCIe when placement misses the
	// upstream device costs Bytes/bandwidth of stage-in time).
	Bytes int64
}

// BuildOptions tune DAG validation.
type BuildOptions struct {
	// HasTool reports whether a tool ID resolves in the caller's registry.
	// Nil skips tool validation (pure graph tests, fuzzing).
	HasTool func(id string) bool
}

// DAG is a validated workflow graph.
type DAG struct {
	// Name labels the workflow.
	Name string

	steps    []Step
	byID     map[string]int
	children map[string][]string
	// topo is a topological order of step IDs (parents before children),
	// stable across builds of the same input.
	topo []string
}

// Build validates a step list into a DAG. It rejects empty workflows,
// empty or duplicate step IDs, edges to unknown steps, self-edges, cycles,
// root steps with no input source, transforms with nothing to transform,
// and (when opts.HasTool is set) steps naming unregistered tools.
func Build(name string, steps []Step, opts BuildOptions) (*DAG, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("workflow %q has no steps", name)
	}
	d := &DAG{
		Name:     name,
		steps:    append([]Step(nil), steps...),
		byID:     make(map[string]int, len(steps)),
		children: make(map[string][]string),
	}
	for i, s := range d.steps {
		if s.ID == "" {
			return nil, fmt.Errorf("workflow %q: step %d has an empty ID", name, i)
		}
		if _, dup := d.byID[s.ID]; dup {
			return nil, fmt.Errorf("workflow %q: duplicate step ID %q", name, s.ID)
		}
		d.byID[s.ID] = i
	}
	for _, s := range d.steps {
		if opts.HasTool != nil && !opts.HasTool(s.Tool) {
			return nil, fmt.Errorf("workflow %q step %q: tool %q not installed", name, s.ID, s.Tool)
		}
		seen := make(map[string]bool, len(s.After))
		for _, p := range s.After {
			if p == s.ID {
				return nil, fmt.Errorf("workflow %q step %q depends on itself", name, s.ID)
			}
			if _, ok := d.byID[p]; !ok {
				return nil, fmt.Errorf("workflow %q step %q depends on unknown step %q", name, s.ID, p)
			}
			if seen[p] {
				return nil, fmt.Errorf("workflow %q step %q lists parent %q twice", name, s.ID, p)
			}
			seen[p] = true
			d.children[p] = append(d.children[p], s.ID)
		}
		if len(s.After) == 0 && !s.HasDataset && s.DatasetName == "" {
			return nil, fmt.Errorf("workflow %q step %q has neither dataset nor upstream edge", name, s.ID)
		}
		if s.HasTransform && len(s.After) == 0 {
			return nil, fmt.Errorf("workflow %q step %q has a transform but no upstream edge", name, s.ID)
		}
	}
	// Kahn's algorithm: a complete topological order proves acyclicity.
	indeg := make(map[string]int, len(d.steps))
	for _, s := range d.steps {
		indeg[s.ID] = len(s.After)
	}
	var frontier []string
	for _, s := range d.steps { // declaration order keeps the sort stable
		if indeg[s.ID] == 0 {
			frontier = append(frontier, s.ID)
		}
	}
	for len(frontier) > 0 {
		id := frontier[0]
		frontier = frontier[1:]
		d.topo = append(d.topo, id)
		for _, c := range d.children[id] {
			indeg[c]--
			if indeg[c] == 0 {
				frontier = append(frontier, c)
			}
		}
	}
	if len(d.topo) != len(d.steps) {
		var stuck []string
		for id, n := range indeg {
			if n > 0 {
				stuck = append(stuck, id)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("workflow %q has a dependency cycle through %v", name, stuck)
	}
	return d, nil
}

// Len returns the number of steps.
func (d *DAG) Len() int { return len(d.steps) }

// Steps returns the steps in declaration order (a copy).
func (d *DAG) Steps() []Step { return append([]Step(nil), d.steps...) }

// Topo returns a topological order of step IDs (a copy).
func (d *DAG) Topo() []string { return append([]string(nil), d.topo...) }

// Parents returns a step's dependency IDs in declaration order.
func (d *DAG) Parents(id string) []string {
	if i, ok := d.byID[id]; ok {
		return append([]string(nil), d.steps[i].After...)
	}
	return nil
}
