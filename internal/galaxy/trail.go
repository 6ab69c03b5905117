package galaxy

import (
	"cmp"
	"slices"
	"time"

	"gyan/internal/journal"
)

// A job's history. Every job keeps its own trail (Job.steps), appended only
// where the engine already reports to its observer: every job record that
// crosses the journal seam (stampJournalLocked), and the scheduler events no
// journal reader acts on — the mapping decision, a park, a grant, a removal
// from the queue. Recover replays each job's records into its trail, so a
// recovered job shows its journaled history. Trail and WorkflowRun.Trails
// serve it as a Trace, segments derived at read time.

// An Event is one step of a job's trail. At is the virtual-time offset of
// the step (the clock the journal stamps), Attempt the failed attempt
// (attempt_fail) or the launch epoch (start), and Detail what the step
// decided: a destination, a fault class, a state, a reason, the previous
// owner (adopt) or the thief (the steal phases).
type Event struct {
	Name    string        `json:"name"`
	At      time.Duration `json:"at"`
	Attempt int           `json:"attempt,omitempty"`
	Detail  string        `json:"detail,omitempty"`
}

// A Segment is a derived span between two events — queue wait, run time,
// retry backoff — computed at read time rather than stored.
type Segment struct {
	Name string        `json:"name"`
	From time.Duration `json:"from"`
	Dur  time.Duration `json:"dur"`
}

// A Trace is one job's trail as served. Workflow/Step identify the DAG step
// the job executes, when it belongs to one.
type Trace struct {
	Job      int       `json:"job"`
	Tool     string    `json:"tool"`
	Workflow int       `json:"workflow,omitempty"`
	Step     string    `json:"step,omitempty"`
	Events   []Event   `json:"events"`
	Segments []Segment `json:"segments,omitempty"`
}

// step is one entry of a job's trail: 32 bytes, its detail a string the job
// or its record already holds.
type step struct {
	kind   stepKind
	n      int32 // the failed attempt (attempt_fail) or launch epoch (start)
	at     time.Duration
	detail string
}

type stepKind uint8

const (
	stepSubmit stepKind = iota
	stepMap
	stepPark  // detail "park"
	stepQueue // detail "grant" or "remove"
	stepStart
	stepAttempt
	stepComplete
	stepDeadLetter
	stepResubmit
	stepAdopt
	stepStealPrepare
	stepStealRetire
	stepStealAbort
)

// stepNames are the served event names, by kind. A park is a schedule step,
// and a grant or an unqueue a queue step, each with its fixed detail.
var stepNames = [...]string{"submit", "map", "schedule", "queue", "start", "attempt_fail",
	"complete", "dead_letter", "resubmit", "adopt", "steal_prepare", "steal_retire", "steal_abort"}

// stepOf is the step a job record adds to its job's trail, and false for a
// record that adds none (a workflow record). The detail is the destination
// a run started on, a failure's class, a completion's state, a dead letter's
// reason, the owner an adopt took the job from, or a steal's thief.
func stepOf(rec *journal.Record) (step, bool) {
	s := step{at: rec.At}
	switch rec.Type {
	case journal.TypeSubmit:
		s.kind = stepSubmit
	case journal.TypeStart:
		s.kind, s.n, s.detail = stepStart, int32(rec.Epoch), rec.Destination
	case journal.TypeAttempt:
		s.kind, s.n, s.detail = stepAttempt, int32(rec.Attempt), rec.Class
	case journal.TypeComplete:
		s.kind, s.detail = stepComplete, rec.State
	case journal.TypeDeadLetter:
		s.kind, s.detail = stepDeadLetter, rec.Msg
	case journal.TypeResubmit:
		s.kind = stepResubmit
	case journal.TypeAdopt:
		s.kind, s.detail = stepAdopt, rec.From
	case journal.TypeStealPrepare:
		s.kind, s.detail = stepStealPrepare, rec.Handler
	case journal.TypeStealRetire:
		s.kind, s.detail = stepStealRetire, rec.Handler
	case journal.TypeStealAbort:
		s.kind, s.detail = stepStealAbort, rec.Handler
	default:
		return s, false
	}
	return s, true
}

// note appends s to the job's trail. A trail starts with room for the four
// steps of a job that runs once (submit, map, start, complete).
func (j *Job) note(s step) {
	if j.steps == nil {
		j.steps = make([]step, 0, 4)
	}
	j.steps = append(j.steps, s)
}

// noteRecordLocked appends the step rec adds to j's trail, and observes the
// two latency histograms off the trail: submit→start at the job's first
// start, submit→complete when it completes ok. Caller holds g.mu.
func (g *Galaxy) noteRecordLocked(j *Job, rec *journal.Record) {
	s, ok := stepOf(rec)
	if !ok {
		return
	}
	if len(j.steps) > 0 && j.steps[0].kind == stepSubmit && s.at >= j.steps[0].at {
		wait := s.at - j.steps[0].at
		switch {
		case s.kind == stepStart && !slices.ContainsFunc(j.steps, func(p step) bool { return p.kind == stepStart }):
			g.obsv.ObserveSubmitToStart(wait)
		case s.kind == stepComplete && s.detail == string(StateOK):
			g.obsv.ObserveSubmitToComplete(wait)
		}
	}
	j.note(s)
}

// trace copies the job's trail out as a Trace, segments not yet derived.
// Caller holds g.mu.
func (j *Job) trace() Trace {
	tr := Trace{Job: j.ID, Tool: j.ToolID, Workflow: j.WorkflowID, Step: j.StepID, Events: make([]Event, len(j.steps))}
	for i, s := range j.steps {
		tr.Events[i] = Event{Name: stepNames[s.kind], At: s.at, Attempt: int(s.n), Detail: s.detail}
	}
	return tr
}

// Trail returns job id's trail with its segments derived, and false when
// the ID names no job.
func (g *Galaxy) Trail(id int) (Trace, bool) {
	g.mu.Lock()
	j := g.jobs[id]
	if j == nil {
		g.mu.Unlock()
		return Trace{}, false
	}
	tr := j.trace()
	g.mu.Unlock()
	tr.Segments = deriveSegments(tr.Events)
	return tr, true
}

// Trails returns the trails of the run's member jobs, segments derived,
// ordered by submit time and then job ID: where every step of the pipeline
// spent its life.
func (wr *WorkflowRun) Trails() []Trace {
	wr.g.mu.Lock()
	out := make([]Trace, 0, len(wr.jobs))
	for _, j := range wr.jobs {
		out = append(out, j.trace())
	}
	wr.g.mu.Unlock()
	for i := range out {
		out[i].Segments = deriveSegments(out[i].Events)
	}
	submitAt := func(tr Trace) time.Duration {
		if len(tr.Events) == 0 {
			return 0
		}
		return tr.Events[0].At // a trail starts with its submit
	}
	slices.SortFunc(out, func(a, b Trace) int {
		return cmp.Or(cmp.Compare(submitAt(a), submitAt(b)), cmp.Compare(a.Job, b.Job))
	})
	return out
}

// deriveSegments turns the event stream into spans:
//
//	queue_wait:    submit → first start
//	run:           each start → the next attempt-fail / complete
//	retry_backoff: each attempt-fail → the following start
func deriveSegments(events []Event) []Segment {
	evs := slices.Clone(events)
	slices.SortStableFunc(evs, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
	var segs []Segment
	var submit, start, fail *Event
	queued := true
	for i := range evs {
		switch e := &evs[i]; e.Name {
		case "submit":
			submit = e
		case "start":
			if queued && submit != nil {
				segs, queued = append(segs, Segment{"queue_wait", submit.At, e.At - submit.At}), false
			}
			if fail != nil {
				segs, fail = append(segs, Segment{"retry_backoff", fail.At, e.At - fail.At}), nil
			}
			start = e
		case "attempt_fail", "complete", "dead_letter":
			if start != nil {
				segs, start = append(segs, Segment{"run", start.At, e.At - start.At}), nil
			}
			if e.Name == "attempt_fail" {
				fail = e
			}
		}
	}
	return segs
}
