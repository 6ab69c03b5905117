package galaxy

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"gyan/internal/core"
	"gyan/internal/journal"
	"gyan/internal/sched"
	"gyan/internal/toolxml"
)

// Batch-scheduler integration. With WithScheduler configured, GPU jobs no
// longer start greedily the instant they are mapped: they park in the
// scheduler's priority queue and a scheduling cycle — run as an engine event
// whenever the queue or the device state changes — decides which jobs start
// on which exclusive device gangs. Greedy dispatch semantics change in two
// ways:
//
//   - users are ordered by fair sharing instead of arrival;
//   - destination slot limits do not apply to scheduler-managed GPU jobs
//     (gang exclusivity is the capacity limit).
//
// CPU-routed jobs, resubmitted jobs pinned to a fallback destination, and
// every job on a scheduler-less Galaxy keep the original greedy path.

// schedEntry tracks one scheduler-managed job from park to release, keeping
// everything needed to (re)launch it: the pending start (job, binding,
// opts), the patched wrapper used at mapping time, and the original request
// so an aborted steal requeues with its submission time intact.
type schedEntry struct {
	pending *pendingStart
	tool    *toolxml.Tool
	req     sched.Request
}

// WithScheduler installs a batch scheduler for GPU jobs. The scheduler must
// not be shared across Galaxy instances.
func WithScheduler(s *sched.Scheduler) Option {
	return func(g *Galaxy) { g.sched = s }
}

// SchedulerMetrics returns the scheduler's counters; the zero Metrics when
// no scheduler is configured.
func (g *Galaxy) SchedulerMetrics() sched.Metrics {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sched == nil {
		return sched.Metrics{}
	}
	return g.sched.Metrics()
}

// parkInSchedulerLocked enqueues a mapped GPU job with the batch scheduler
// and schedules the cycles that will eventually start it.
func (g *Galaxy) parkInSchedulerLocked(job *Job, binding *ToolBinding, opts SubmitOptions,
	tool *toolxml.Tool, now time.Duration) {
	gang := opts.GPUs
	if gang <= 0 {
		// The wrapper's pinned device list (version-tag IDs) implies the
		// gang size the tool expects.
		if req, ok := tool.GPURequirement(); ok {
			if ids, err := req.GPUIDs(); err == nil && len(ids) > 0 {
				gang = len(ids)
			}
		}
	}
	if gang <= 0 {
		gang = 1
	}
	req := sched.Request{
		ID:         job.ID,
		User:       job.User,
		Priority:   opts.Priority,
		GPUs:       gang,
		EstRuntime: opts.EstRuntime,
		Submitted:  job.Submitted,
		Prefer:     opts.preferDevices,
	}
	if req.Submitted == 0 {
		// Mirror sched.Submit's zero-means-now default so the stored
		// requeue request agrees with what the scheduler records.
		req.Submitted = now
	}
	if err := g.sched.Submit(req, now); err != nil {
		job.Info = err.Error()
		job.finish(StateError, now)
		return
	}
	job.State = StateQueued
	job.Info = fmt.Sprintf("queued: awaiting gang of %d GPU(s)", gang)
	g.obsv.Parked(job.ID, now)
	g.schedJobs[job.ID] = &schedEntry{
		pending: &pendingStart{job: job, binding: binding, opts: opts},
		tool:    tool,
		req:     req,
	}
	g.recordQueueLocked(now)
	g.scheduleCycle()
}

// scheduleCycle plants a scheduling cycle at the current virtual time.
// Redundant cycles are cheap: a cycle with nobody queued returns before it
// surveys the devices.
func (g *Galaxy) scheduleCycle() {
	g.Engine.After(0, g.schedCycle)
}

// schedCycle surveys the devices, runs one scheduler cycle and executes its
// decision: rejects fail, starts launch.
func (g *Galaxy) schedCycle(now time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sched == nil || g.sched.QueueDepth() == 0 {
		// sched.Cycle over an empty queue decides nothing, counts nothing
		// and journals nothing; it is not worth a survey. Every release
		// plants a cycle, so this is the common case on a node that keeps
		// up with its arrivals.
		return
	}
	survey, err := g.surveyCache.Usage(g.Cluster, now)
	if err != nil {
		return
	}
	// Quarantined devices are invisible to the scheduler, exactly as they
	// are to the greedy mapper.
	survey = survey.Without(g.quarantine.Quarantined(now))
	dec := g.sched.Cycle(now, survey)
	for _, rej := range dec.Rejects {
		e := g.schedJobs[rej.ID]
		delete(g.schedJobs, rej.ID)
		if e == nil || e.pending.job.Done() {
			continue
		}
		e.pending.job.Info = rej.Reason
		e.pending.job.finish(StateError, now)
		g.logJournal(journal.Record{
			Type: journal.TypeComplete, At: now, Job: rej.ID,
			State: string(StateError), Msg: rej.Reason,
		})
	}
	for _, st := range dec.Starts {
		if e := g.schedJobs[st.ID]; e != nil {
			g.launchScheduledLocked(e, st, now)
		}
	}
	denied := g.processGateDenialsLocked(now)
	if !dec.Empty() || denied {
		g.recordQueueLocked(now)
	}
}

// launchScheduledLocked starts one granted job on exactly its device gang.
func (g *Galaxy) launchScheduledLocked(e *schedEntry, st sched.Start, now time.Duration) {
	job := e.pending.job
	if job.killed || job.Done() {
		// Defensive: Kill removes parked jobs from the scheduler, so a
		// grant for a dead job should not happen.
		delete(g.schedJobs, job.ID)
		g.sched.Release(job.ID, now)
		return
	}
	dest, err := g.Conf.Destination(core.GPUDestination)
	if err != nil {
		delete(g.schedJobs, job.ID)
		g.sched.Release(job.ID, now)
		job.Info = err.Error()
		job.finish(StateError, now)
		return
	}
	decision := core.Decision{
		Destination:    dest,
		GPUEnabled:     true,
		Devices:        st.Devices,
		VisibleDevices: deviceList(st.Devices),
		Reason:         st.Reason,
	}
	g.obsv.Granted(job.ID, now)
	id := job.ID
	release := func() {
		delete(g.schedJobs, id)
		at := g.Engine.Clock().Now()
		g.sched.Release(id, at)
		g.recordQueueLocked(at)
		g.scheduleCycle()
	}
	g.launchLocked(job, e.pending.binding, e.pending.opts, e.tool, decision, release, now)
}

// recordQueueLocked samples queue depth into the scheduler's metrics.
func (g *Galaxy) recordQueueLocked(now time.Duration) {
	if g.sched == nil {
		return
	}
	g.sched.RecordDepth(now)
}

// deviceList renders minor IDs as a CUDA_VISIBLE_DEVICES value.
func deviceList(devices []int) string {
	parts := make([]string, len(devices))
	for i, d := range devices {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, ",")
}
