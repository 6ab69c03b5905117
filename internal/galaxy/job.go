// Package galaxy reimplements the slice of the Galaxy framework that GYAN
// patches: the tool registry, the job lifecycle (Fig. 2's four-step flow),
// the param-dict evaluation bridge, and the local/containerized runners.
//
// A Galaxy instance is driven by a discrete-event engine, so jobs submitted
// at different virtual times interleave deterministically — this is what
// the multi-GPU case experiments (Figs. 8-11) run on.
package galaxy

import (
	"time"

	"gyan/internal/gpu"
	"gyan/internal/journal"
)

// JobState is the lifecycle state of a job, mirroring Galaxy's job states.
type JobState string

// Job states.
const (
	StateNew     JobState = "new"
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateOK      JobState = "ok"
	StateError   JobState = "error"
	// StateDeadLetter marks a job that exhausted fault recovery: a permanent
	// fault, or a transient one with no retry budget left. Dead-lettered jobs
	// keep their full failure log for post-mortem (see Job.Failures).
	StateDeadLetter JobState = "dead_letter"
	// StateStolen marks a queued job handed to another handler by the
	// cluster's work-stealing pass (RetireSteal). The job is terminal on
	// this handler — it runs to completion under the thief's epoch — and
	// Job.owner records who took it, so both the live state and the
	// journaled retire record agree on ownership.
	StateStolen JobState = "stolen"
	// StatePrepared marks a queued job detached under the first phase of a
	// two-phase steal (PrepareSteal): it is out of the local scheduler with
	// a tentative new owner journaled, but the transfer is not final until
	// the thief's accept is acknowledged (RetireSteal) — or it is rolled
	// back into the queue (AbortSteal). Not terminal: the job still belongs
	// here until retired.
	StatePrepared JobState = "prepared"
)

// Job is one submitted tool execution.
type Job struct {
	// ID is the job's ordinal identifier.
	ID int
	// ToolID names the registered tool.
	ToolID string
	// Params are the user-supplied tool parameters (merged over wrapper
	// defaults at evaluation time).
	Params map[string]string
	// Dataset is the input payload (*workload.ReadSet for racon,
	// *workload.SquiggleSet for bonito).
	Dataset any
	// Runtime is "" for bare-metal, or "docker"/"singularity".
	Runtime string
	// User attributes the job for fair-share accounting.
	User string
	// Resubmitted counts how many times the job was rerouted to a
	// fallback destination after a failure.
	Resubmitted int
	// Failures is the job's classified-fault log, one entry per failed
	// dispatch attempt (injected faults and execution timeouts; legacy
	// StateError failures are not logged here).
	Failures []Failure
	// DependencyInstall is the time spent installing the tool's conda
	// environment (zero when cached or containerized).
	DependencyInstall time.Duration
	// WorkflowID and StepID tie the job to a DAG workflow step (zero/empty
	// for standalone jobs).
	WorkflowID int
	StepID     string
	// StageIn is the input staging time the job's placement incurred (zero
	// when its data already lived on a granted device; see the locality
	// model in internal/galaxy/dag.go).
	StageIn time.Duration
	// DurableTicket is the journal commit ticket of the job's submit record
	// when it was submitted under WithAsyncDurable (zero otherwise): the
	// submit returned at stage time, and the caller awaits durability in
	// bulk via Galaxy.AwaitDurable or the commit watermark.
	DurableTicket uint64

	// State tracks the lifecycle.
	State JobState
	// Destination is the job_conf destination the job landed on.
	Destination string
	// GPUEnabled is the GALAXY_GPU_ENABLED value chosen by GYAN.
	GPUEnabled bool
	// Devices are the allocated GPU minor IDs.
	Devices []int
	// VisibleDevices is the exported CUDA_VISIBLE_DEVICES value.
	VisibleDevices string
	// PID is the simulated host process ID.
	PID int
	// CommandLine is the rendered tool command.
	CommandLine string
	// ContainerCommand is the assembled container launch command
	// (containerized jobs only).
	ContainerCommand []string
	// Info carries the mapping decision reason or the error text.
	Info string

	// Submitted, Started and Finished are virtual timestamps.
	Submitted, Started, Finished time.Duration
	// Result is the executor's outcome once the job completes.
	Result *ExecResult

	sessions []*gpu.Stream
	// onDone, if set, runs when the job reaches a terminal state
	// (workflow chaining).
	onDone func(*Job)
	// killed marks a job cancelled by the user; the pending completion
	// event becomes a no-op.
	killed bool
	// run is the launch epoch: bumped on every (re)launch so a completion
	// event scheduled by a run a fault retry tore down stands down.
	run int
	// release returns the job's scheduler slots; set while running.
	release func()
	// submit is the journal record that created this job, retained so a
	// snapshot can condense history without re-deriving submission options.
	submit journal.Record
	// datasetName is the registry name the dataset was resolved from
	// (journaled so recovery can re-resolve the payload after a restart).
	datasetName string
	// attemptBase offsets Attempt() after an admin resubmit: the retained
	// failure log no longer counts against the fresh retry budget.
	attemptBase int
	// owner is the handler that owns this job when it differs from the
	// local handler (orphaned jobs recovered under a live foreign lease).
	owner string
}

// clone returns a deep-enough copy of the job for snapshot readers: every
// public field is safe to read and the mutable slices (Devices, Failures,
// ContainerCommand) are copied so an in-flight relaunch can't swap them out
// underneath the caller. Engine-internal fields (sessions, completion hooks,
// slot releases) are nilled — a clone is an observation, not a live job.
// Params, Dataset and Result are shared: the engine treats them as immutable
// once set.
func (j *Job) clone() *Job {
	c := *j
	c.Devices = append([]int(nil), j.Devices...)
	c.Failures = append([]Failure(nil), j.Failures...)
	c.ContainerCommand = append([]string(nil), j.ContainerCommand...)
	c.sessions = nil
	c.onDone = nil
	c.release = nil
	return &c
}

// finish moves the job to a terminal state and fires the completion hook.
func (j *Job) finish(state JobState, at time.Duration) {
	j.State = state
	j.Finished = at
	if j.onDone != nil {
		j.onDone(j)
	}
}

// Runtime durations.

// WallTime returns the job's virtual run time (start to finish).
func (j *Job) WallTime() time.Duration {
	if j.Finished < j.Started {
		return 0
	}
	return j.Finished - j.Started
}

// QueueWait returns how long the job waited between submission and its
// (most recent) start; zero while still queued.
func (j *Job) QueueWait() time.Duration {
	if j.Started < j.Submitted {
		return 0
	}
	return j.Started - j.Submitted
}

// Done reports whether the job reached a terminal state. A stolen job is
// terminal here: its lifecycle continues on the handler that took it.
func (j *Job) Done() bool {
	return j.State == StateOK || j.State == StateError || j.State == StateDeadLetter ||
		j.State == StateStolen
}

// Attempt returns the job's current 1-based dispatch attempt: one more than
// the number of classified failures recorded since the job's retry budget
// last reset (an admin resubmit retains the failure log but starts a fresh
// budget).
func (j *Job) Attempt() int { return len(j.Failures) - j.attemptBase + 1 }

// ownerOr returns the job's owning handler, defaulting to def for jobs the
// local handler owns.
func (j *Job) ownerOr(def string) string {
	if j.owner != "" {
		return j.owner
	}
	return def
}
