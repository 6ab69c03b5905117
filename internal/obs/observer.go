package obs

import (
	"time"

	"gyan/internal/journal"
)

// Observer is the bridge between the engine's journal seam and the metrics
// registry: every job-state transition the engine journals (or would
// journal — the observer runs even with durability disabled) is fed through
// Transition, which bumps the relevant counters, observes latency
// histograms, and appends one event to the job's trace. The mapping decision,
// scheduler-queue and quarantine events no journal reader acts on are not
// records; the engine reports them through Mapped, Parked, Granted, Unqueued
// and Quarantined. The fsync side of the journal reports through ObserveFsync.
//
// None of these may call back into the engine: they run inside the dispatch
// hot path, under whatever locks the caller holds.
type Observer struct {
	Reg    *Registry
	Traces *Tracer

	// Hot-path series, resolved once at construction.
	submitted   CounterVec // by tool
	completed   CounterVec // by state (ok | error | dead_letter)
	mapped      CounterVec // by destination
	attempts    CounterVec // by fault class
	quarantines *Counter
	parked      *Counter
	grants      *Counter
	resubmits   *Counter
	adoptions   *Counter

	wfSubmitted *Counter
	wfCompleted CounterVec // by state

	submitToStart    *Histogram
	submitToComplete *Histogram
	fsyncBatch       *Histogram
	fsyncSeconds     *Histogram
	surveySeconds    *Histogram
}

// NewObserver builds an observer with a fresh registry and tracer and the
// standard gyan_ metric families pre-registered.
func NewObserver() *Observer {
	r := NewRegistry()
	o := &Observer{
		Reg:    r,
		Traces: NewTracer(0),

		submitted: r.CounterVec("gyan_jobs_submitted_total",
			"Jobs accepted by Submit, by tool.", "tool"),
		completed: r.CounterVec("gyan_jobs_completed_total",
			"Jobs reaching a terminal state, by state (ok, error, dead_letter).", "state"),
		mapped: r.CounterVec("gyan_map_decisions_total",
			"Destination-mapping decisions, by destination.", "destination"),
		attempts: r.CounterVec("gyan_job_attempts_total",
			"Classified dispatch failures (retry epoch boundaries), by fault class.", "class"),
		quarantines: r.Counter("gyan_quarantine_total",
			"Devices entering quarantine."),
		parked: r.Counter("gyan_sched_parked_total",
			"GPU jobs parked in the batch scheduler's priority queue."),
		grants: r.Counter("gyan_sched_grants_total",
			"Scheduler queue grants (parked jobs granted devices)."),
		resubmits: r.Counter("gyan_resubmits_total",
			"Dead-lettered jobs replayed as fresh epochs."),
		adoptions: r.Counter("gyan_adoptions_total",
			"Jobs adopted at recovery from another handler's journal trail."),
		wfSubmitted: r.Counter("gyan_workflows_submitted_total",
			"DAG workflows accepted by SubmitDAG."),
		wfCompleted: r.CounterVec("gyan_workflows_completed_total",
			"Workflows reaching a terminal state, by state (ok, error).", "state"),

		submitToStart: r.Histogram("gyan_submit_to_start_seconds",
			"Virtual-time latency from submit to first execution start.",
			DefLatencyBuckets()),
		submitToComplete: r.Histogram("gyan_submit_to_complete_seconds",
			"Virtual-time latency from submit to successful completion.",
			DefLatencyBuckets()),
		fsyncBatch: r.Histogram("gyan_journal_fsync_batch_records",
			"Records made durable per journal fsync (group-commit batch size).",
			DefBatchBuckets()),
		fsyncSeconds: r.Histogram("gyan_journal_fsync_seconds",
			"Wall-clock duration of journal fsyncs.",
			[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}),
		surveySeconds: r.Histogram("gyan_smi_survey_seconds",
			"Wall-clock duration of nvidia-smi survey round trips (survey cache misses).",
			// From 1µs: a survey is tens of microseconds, below the
			// first bound of DefLatencyBuckets.
			[]float64{1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 0.1}),
	}
	return o
}

// Transition records one journaled job-state transition. It is the single
// instrumentation point for the whole lifecycle: the engine calls it from
// the same seam that feeds the WAL, so metrics and traces cannot drift from
// what the journal says happened.
func (o *Observer) Transition(rec journal.Record) {
	switch rec.Type {
	case journal.TypeSubmit:
		o.submitted.With(rec.Tool).Inc()
		o.Traces.Begin(rec.Job, rec.Tool)
		if rec.Workflow != 0 {
			o.Traces.Tag(rec.Job, rec.Workflow, rec.Step)
		}
		o.Traces.Record(rec.Job, Event{Name: "submit", At: rec.At})

	case journal.TypeWorkflow:
		o.wfSubmitted.Inc()

	case journal.TypeStart:
		// Start records carry the launch epoch, not a retry attempt.
		meta, ok := o.Traces.Record(rec.Job,
			Event{Name: "start", At: rec.At, Attempt: rec.Epoch, Detail: rec.Destination})
		if ok && meta.Starts == 1 && rec.At >= meta.Submitted {
			o.submitToStart.ObserveDuration(rec.At - meta.Submitted)
		}

	case journal.TypeAttempt:
		o.attempts.With(rec.Class).Inc()
		o.Traces.Record(rec.Job,
			Event{Name: "attempt_fail", At: rec.At, Attempt: rec.Attempt, Detail: rec.Class})

	case journal.TypeComplete:
		if rec.Job == 0 && rec.Workflow != 0 {
			// A workflow-level verdict, not a job transition.
			o.wfCompleted.With(rec.State).Inc()
			return
		}
		o.completed.With(rec.State).Inc()
		meta, ok := o.Traces.Record(rec.Job,
			Event{Name: "complete", At: rec.At, Detail: rec.State})
		if ok && rec.State == "ok" && rec.At >= meta.Submitted {
			o.submitToComplete.ObserveDuration(rec.At - meta.Submitted)
		}

	case journal.TypeDeadLetter:
		o.completed.With("dead_letter").Inc()
		o.Traces.Record(rec.Job, Event{Name: "dead_letter", At: rec.At, Detail: rec.Msg})

	case journal.TypeResubmit:
		o.resubmits.Inc()
		o.Traces.Record(rec.Job, Event{Name: "resubmit", At: rec.At})

	case journal.TypeAdopt:
		o.adoptions.Inc()
		o.Traces.Record(rec.Job, Event{Name: "adopt", At: rec.At, Detail: rec.From})
	}
}

// Mapped records one destination-mapping decision (GYAN's dynamic rule).
func (o *Observer) Mapped(job int, at time.Duration, destination string) {
	o.mapped.With(destination).Inc()
	o.Traces.Record(job, Event{Name: "map", At: at, Detail: destination})
}

// Parked records a GPU job entering the batch scheduler's priority queue —
// the same instant as its map event.
func (o *Observer) Parked(job int, at time.Duration) {
	o.parked.Inc()
	o.Traces.Record(job, Event{Name: "schedule", At: at, Detail: "park"})
}

// Granted records the scheduler granting a parked job its device gang — the
// same instant as its start record.
func (o *Observer) Granted(job int, at time.Duration) {
	o.grants.Inc()
	o.Traces.Record(job, Event{Name: "queue", At: at, Detail: "grant"})
}

// Unqueued records a parked job leaving the scheduler's queue without a
// grant (killed while waiting).
func (o *Observer) Unqueued(job int, at time.Duration) {
	o.Traces.Record(job, Event{Name: "queue", At: at, Detail: "remove"})
}

// Quarantined records a device entering quarantine.
func (o *Observer) Quarantined() { o.quarantines.Inc() }

// ObserveFsync records one journal fsync: how many appended records it made
// durable and how long the disk took. Wired into journal.SetSyncObserver.
func (o *Observer) ObserveFsync(records int, took time.Duration) {
	o.fsyncBatch.Observe(float64(records))
	o.fsyncSeconds.ObserveDuration(took)
}

// ObserveSurvey records the wall-clock cost of one nvidia-smi survey round
// trip. Wired into smi.NewCache, which reports its misses.
func (o *Observer) ObserveSurvey(took time.Duration) {
	o.surveySeconds.ObserveDuration(took)
}
