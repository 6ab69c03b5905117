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
	"gyan/internal/sched"
	"gyan/internal/toolxml"
)

// JobState is the lifecycle state of a job; the lifecycle is stated in
// internal/journal, which folds every trail through it.
type JobState = journal.State

// Job states (journal's).
const (
	StateQueued     = journal.StateQueued
	StateRunning    = journal.StateRunning
	StateOK         = journal.StateOK
	StateError      = journal.StateError
	StateDeadLetter = journal.StateDeadLetter
	// StateStolen marks a job another handler stole; Job.owner names it.
	StateStolen = journal.StateStolen
	// StatePrepared marks a job a steal is moving; Job.steal holds the steal.
	StatePrepared = journal.StatePrepared
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

	// State tracks the lifecycle; only its moves (moveLocked) write it.
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
	// run is the launch epoch, bumped by every (re)launch and journaled on
	// its start record. A run's pending events stand down once the job is
	// no longer running that epoch (see Job.runs).
	run int
	// submit is the journal record that created this job. Dispatch reads the
	// submission off it (runtime, GPU request, priority, gang, estimate), a
	// thief rebuilds the job from it (AcceptTransfer), and its Dataset names
	// the registry entry the payload was resolved from.
	submit journal.Record
	// binding is the job's tool, and tool the wrapper it is mapped and run
	// with, its GPU request patched in (bind).
	binding *ToolBinding
	tool    *toolxml.Tool
	// hints are what the job's dispatch is told beyond its submit record
	// (nil when nothing).
	hints *dispatchHints
	// parked is the request the job waits in the batch scheduler with, kept
	// until its grant so an aborted steal re-submits exactly it: a job
	// submitted at t=0 with a Delay parks with its park instant as seniority.
	parked *sched.Request
	// slot and gang say what the job's run holds: a slot on its Destination
	// or a scheduler gang. releaseLocked frees it and clears the flag.
	slot, gang bool
	// attemptBase offsets Attempt() after an admin resubmit: the retained
	// failure log no longer counts against the fresh retry budget.
	attemptBase int
	// owner is the handler that owns this job when it differs from the
	// local handler (a stolen job names its thief).
	owner string
	// steal is the prepare record of the steal in flight while the job is
	// prepared (else nil): Handler names the thief, Xfer the transfer.
	steal *journal.Record
	// steps is the job's trail, append-only (trail.go).
	steps []step
}

// dispatchHints steer a job's dispatch beyond its submit record; the journal
// holds none, so a recovered or admin-resubmitted job starts without them.
type dispatchHints struct {
	// pin names the fallback destination a failed run rerouted the job to
	// (resubmit_destination); it overrides the mapper and the scheduler.
	pin string
	// prefer lists the devices holding a workflow step's input, a hint to
	// the batch scheduler's LocalityBonus.
	prefer []int
	// stageCost returns a workflow step's stage-in time on a granted gang
	// (zero when its input already lives there); the run holds the gang
	// through it, so a locality miss costs makespan and queue time.
	stageCost func(devices []int) time.Duration
}

// clone returns a deep-enough copy of the job for snapshot readers: every
// public field is safe to read and the mutable slices (Devices, Failures,
// ContainerCommand) are copied so an in-flight relaunch can't swap them out
// underneath the caller. Engine-internal fields (sessions, completion hooks,
// what dispatch carries, the trail) are nilled — a clone is an observation,
// not a live job; Galaxy.Trail copies the trail out.
// Params, Dataset and Result are shared: the engine treats them as immutable
// once set.
func (j *Job) clone() *Job {
	c := *j
	c.Devices = append([]int(nil), j.Devices...)
	c.Failures = append([]Failure(nil), j.Failures...)
	c.ContainerCommand = append([]string(nil), j.ContainerCommand...)
	c.sessions, c.onDone, c.steps = nil, nil, nil
	c.binding, c.tool, c.hints, c.parked = nil, nil, nil, nil
	return &c
}

// stop tears down the job's live run at `at`: its device sessions abort.
// What the run holds is the caller's to release once the job has moved on.
func (j *Job) stop(at time.Duration) {
	for _, s := range j.sessions {
		s.Abort(at)
	}
	j.sessions = nil
}

// bind sets the job's tool binding and the wrapper it runs with: the
// binding's, or, when the user pinned device IDs through the requirement's
// version tag (SubmitOptions.GPURequest, Section IV-C), a copy with the pin
// applied.
func (j *Job) bind(b *ToolBinding) {
	j.binding, j.tool = b, b.XML
	if ids := j.submit.GPURequest; ids != "" {
		patched := *b.XML
		patched.Requirements.Items = append([]toolxml.Requirement(nil), b.XML.Requirements.Items...)
		for i := range patched.Requirements.Items {
			if patched.Requirements.Items[i].IsGPU() {
				patched.Requirements.Items[i].Version = ids
			}
		}
		j.tool = &patched
	}
}

// runs reports whether the job is still running launch epoch run: a kill,
// a fault or a retry ends a run, and its pending events then stand down.
func (j *Job) runs(run int) bool { return j.State == StateRunning && j.run == run }

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

// Done reports whether the lifecycle marks the job's state done.
func (j *Job) Done() bool { return j.State.Done() }

// Attempt returns the job's current 1-based dispatch attempt: one more than
// the number of classified failures recorded since the job's retry budget
// last reset (an admin resubmit retains the failure log but starts a fresh
// budget).
func (j *Job) Attempt() int { return len(j.Failures) - j.attemptBase + 1 }
