package workflow

import "sort"

// StepState is one step's position in the run's lifecycle.
type StepState string

// Step states. Ready means every parent completed ok and the step may be
// released; Submitted means the integration layer handed it to the job
// engine; Skipped means a failure cancelled it before release.
const (
	StepPending   StepState = "pending"
	StepReady     StepState = "ready"
	StepSubmitted StepState = "submitted"
	StepDone      StepState = "done"
	StepFailed    StepState = "failed"
	StepSkipped   StepState = "skipped"
)

// Terminal reports whether a step state is final.
func (s StepState) Terminal() bool {
	return s == StepDone || s == StepFailed || s == StepSkipped
}

// Run is the ready-set state machine over one DAG instance. It is pure
// bookkeeping — no clocks, no goroutines, no engine — and not safe for
// concurrent use; the caller serializes access (galaxy holds its workflow
// run's lock).
//
// A run fails fast: the first step failure cancels every not-yet-released
// step; in-flight steps run to completion but release nothing further.
type Run struct {
	dag   *DAG
	state map[string]StepState
	// devices remembers each completed step's GPU placement so children
	// can prefer the devices already holding their inputs.
	devices map[string][]int
	failed  bool
}

// NewRun builds the initial state: roots ready, everything else pending.
func NewRun(d *DAG) *Run {
	r := &Run{
		dag:     d,
		state:   make(map[string]StepState, d.Len()),
		devices: make(map[string][]int),
	}
	for _, s := range d.steps {
		if len(s.After) == 0 {
			r.state[s.ID] = StepReady
		} else {
			r.state[s.ID] = StepPending
		}
	}
	return r
}

// State returns a step's current state ("" for an unknown step).
func (r *Run) State(id string) StepState { return r.state[id] }

// Ready returns the releasable steps in topological order.
func (r *Run) Ready() []string {
	var out []string
	for _, id := range r.dag.topo {
		if r.state[id] == StepReady {
			out = append(out, id)
		}
	}
	return out
}

// MarkSubmitted transitions a ready step to submitted. Submitting a step
// that is not ready is ignored (defensive; the caller drives from Ready()).
func (r *Run) MarkSubmitted(id string) {
	if r.state[id] == StepReady {
		r.state[id] = StepSubmitted
	}
}

// Complete records a submitted step's terminal outcome. devices is the GPU
// gang the step ran on (nil for CPU steps), remembered for children's
// placement preference. It returns the steps the completion made ready and
// the steps a failure skipped, both in topological order. A completion for a
// step that is already terminal is a no-op (a workflow's verdict never flips
// retroactively).
func (r *Run) Complete(id string, ok bool, devices []int) (newlyReady, skipped []string) {
	st, known := r.state[id]
	if !known || st.Terminal() {
		return nil, nil
	}
	if !ok {
		r.state[id] = StepFailed
		r.failed = true
		return nil, r.skipUnreleased()
	}
	r.state[id] = StepDone
	if len(devices) > 0 {
		r.devices[id] = append([]int(nil), devices...)
	}
	if r.failed {
		// A sibling already failed the run; this step's completion stands,
		// but nothing further is released.
		return nil, nil
	}
	fresh := make(map[string]bool)
	for _, c := range r.dag.children[id] {
		if r.state[c] != StepPending {
			continue
		}
		allDone := true
		for _, p := range r.dag.Parents(c) {
			if r.state[p] != StepDone {
				allDone = false
				break
			}
		}
		if allDone {
			r.state[c] = StepReady
			fresh[c] = true
		}
	}
	// Report the steps this completion unblocked, in topological order.
	for _, t := range r.dag.topo {
		if fresh[t] {
			newlyReady = append(newlyReady, t)
		}
	}
	return newlyReady, nil
}

// skipUnreleased cancels every step not yet released and returns them.
func (r *Run) skipUnreleased() []string {
	var skipped []string
	for _, id := range r.dag.topo {
		if st := r.state[id]; st == StepPending || st == StepReady {
			r.state[id] = StepSkipped
			skipped = append(skipped, id)
		}
	}
	return skipped
}

// PreferredDevices returns the union of a step's parents' completed GPU
// placements, sorted ascending — the devices already holding the step's
// inputs, which locality-aware placement should prefer.
func (r *Run) PreferredDevices(id string) []int {
	set := make(map[int]bool)
	for _, p := range r.dag.Parents(id) {
		for _, d := range r.devices[p] {
			set[d] = true
		}
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]int, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// Done reports whether every step reached a terminal state.
func (r *Run) Done() bool {
	for _, s := range r.dag.steps {
		if !r.state[s.ID].Terminal() {
			return false
		}
	}
	return true
}

// Failed reports whether any step failed.
func (r *Run) Failed() bool { return r.failed }

// Counts tallies steps by state.
func (r *Run) Counts() map[StepState]int {
	out := make(map[StepState]int)
	for _, st := range r.state {
		out[st]++
	}
	return out
}
