package obs

import (
	"sort"
	"sync"
	"time"
)

// An Event is one step in a job's lifecycle trace. At is the virtual-time
// offset of the transition (the same clock the journal stamps), Attempt the
// execution attempt it belongs to, and Detail a low-cardinality annotation
// (destination, fault class, dead-letter reason).
type Event struct {
	Name    string        `json:"name"`
	At      time.Duration `json:"at"`
	Attempt int           `json:"attempt,omitempty"`
	Detail  string        `json:"detail,omitempty"`
}

// A Segment is a derived span between two trace events — queue wait, run
// time, retry backoff — computed at dump time rather than stored.
type Segment struct {
	Name string        `json:"name"`
	From time.Duration `json:"from"`
	Dur  time.Duration `json:"dur"`
}

// A Trace is the full recorded lifecycle of one job. Workflow/Step identify
// the DAG step the job executes, when it belongs to one.
type Trace struct {
	Job      int       `json:"job"`
	Tool     string    `json:"tool"`
	Workflow int       `json:"workflow,omitempty"`
	Step     string    `json:"step,omitempty"`
	Events   []Event   `json:"events"`
	Segments []Segment `json:"segments,omitempty"`
}

// Meta summarizes what the tracer already knew about a job when an event
// was recorded; the observer uses it to derive latency observations
// (submit→start is only meaningful on the first start) without a second
// lookup.
type Meta struct {
	Submitted time.Duration // virtual submit time
	Starts    int           // start events recorded so far, including this one
}

// Tracer records bounded per-job lifecycle traces under one mutex. Storage
// is bounded exactly: once maxJobs traces are held, opening another evicts
// the oldest, so a long-running server's trace memory stays O(maxJobs)
// regardless of how many jobs it has dispatched.
type Tracer struct {
	mu     sync.Mutex
	traces map[int]*Trace
	// order is insertion order; only eviction deletes, so the front is
	// always the live oldest trace and eviction is O(1) instead of a map scan.
	order []int
	max   int
}

// defaultTraceJobs bounds how many job traces are retained.
const defaultTraceJobs = 4096

// NewTracer builds a tracer retaining the maxJobs most-recent traces (0
// means the default of 4096).
func NewTracer(maxJobs int) *Tracer {
	if maxJobs <= 0 {
		maxJobs = defaultTraceJobs
	}
	return &Tracer{traces: make(map[int]*Trace), max: maxJobs}
}

// Begin opens a trace for a job. Tool is recorded once; the submit event
// itself arrives through Record like every other transition.
func (t *Tracer) Begin(job int, tool string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.traces[job]; ok {
		return
	}
	if len(t.traces) >= t.max {
		oldest := t.order[0]
		t.order = t.order[1:]
		delete(t.traces, oldest)
	}
	t.traces[job] = &Trace{Job: job, Tool: tool}
	t.order = append(t.order, job)
}

// Tag marks a job's trace as executing one step of a workflow. A no-op for
// unknown (evicted) jobs.
func (t *Tracer) Tag(job, workflow int, step string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tr, ok := t.traces[job]; ok {
		tr.Workflow, tr.Step = workflow, step
	}
}

// WorkflowSpans collects the retained traces of one workflow's member jobs —
// the per-workflow span tree. Steps are ordered by submit time (then job
// ID), each with derived segments, so a dump shows where every step of the
// pipeline spent its life.
func (t *Tracer) WorkflowSpans(workflow int) []Trace {
	var out []Trace
	t.mu.Lock()
	for _, tr := range t.traces {
		if tr.Workflow != workflow {
			continue
		}
		cp := Trace{
			Job: tr.Job, Tool: tr.Tool, Workflow: tr.Workflow, Step: tr.Step,
			Events: append([]Event(nil), tr.Events...),
		}
		cp.Segments = deriveSegments(cp.Events)
		out = append(out, cp)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		a, b := submitAt(out[i].Events), submitAt(out[k].Events)
		if a != b {
			return a < b
		}
		return out[i].Job < out[k].Job
	})
	return out
}

func submitAt(events []Event) time.Duration {
	for _, e := range events {
		if e.Name == "submit" {
			return e.At
		}
	}
	return 0
}

// Record appends an event to a job's trace and reports what the tracer
// already knew (see Meta). The bool is false when the job has no live trace
// (evicted, or recording started mid-lifecycle).
func (t *Tracer) Record(job int, ev Event) (Meta, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.traces[job]
	if !ok {
		return Meta{}, false
	}
	tr.Events = append(tr.Events, ev)
	var m Meta
	for _, e := range tr.Events {
		switch e.Name {
		case "submit":
			m.Submitted = e.At
		case "start":
			m.Starts++
		}
	}
	return m, true
}

// Get returns a copy of a job's trace with derived segments filled in, or
// false if the job is unknown (never traced, or evicted).
func (t *Tracer) Get(job int) (Trace, bool) {
	t.mu.Lock()
	tr, ok := t.traces[job]
	if !ok {
		t.mu.Unlock()
		return Trace{}, false
	}
	cp := Trace{Job: tr.Job, Tool: tr.Tool, Events: append([]Event(nil), tr.Events...)}
	t.mu.Unlock()
	cp.Segments = deriveSegments(cp.Events)
	return cp, true
}

// deriveSegments turns the event stream into spans:
//
//	queue_wait:    submit → first start
//	run:           each start → the next attempt-fail / complete
//	retry_backoff: each attempt-fail → the following start
func deriveSegments(events []Event) []Segment {
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, k int) bool { return evs[i].At < evs[k].At })
	var segs []Segment
	var submitAt time.Duration
	haveSubmit := false
	var openStart time.Duration
	haveStart := false
	var failAt time.Duration
	haveFail := false
	firstStart := true
	for _, e := range evs {
		switch e.Name {
		case "submit":
			submitAt, haveSubmit = e.At, true
		case "start":
			if firstStart && haveSubmit {
				segs = append(segs, Segment{Name: "queue_wait", From: submitAt, Dur: e.At - submitAt})
				firstStart = false
			}
			if haveFail {
				segs = append(segs, Segment{Name: "retry_backoff", From: failAt, Dur: e.At - failAt})
				haveFail = false
			}
			openStart, haveStart = e.At, true
		case "attempt_fail", "complete", "dead_letter":
			if haveStart {
				segs = append(segs, Segment{Name: "run", From: openStart, Dur: e.At - openStart})
				haveStart = false
			}
			if e.Name == "attempt_fail" {
				failAt, haveFail = e.At, true
			}
		}
	}
	return segs
}
