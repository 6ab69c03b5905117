package galaxy

import (
	"fmt"
	"time"

	"gyan/internal/core"
	"gyan/internal/sched"
)

// Batch-scheduler integration. With WithScheduler configured, GPU jobs no
// longer start greedily the instant they are mapped: they park in the
// scheduler's priority queue (g.schedJobs holds each from park to release)
// and a scheduling cycle — run as an engine event whenever the queue or the
// device state changes — decides which jobs start on which exclusive device
// gangs. Against greedy dispatch:
//
//   - jobs start by priority class (SubmitOptions.Priority), then by fair
//     share within a class, instead of in arrival order;
//   - destination slot limits do not apply (gang exclusivity is the
//     capacity limit).
//
// CPU-routed jobs, resubmitted jobs pinned to a fallback destination, and
// every job on a scheduler-less Galaxy keep the greedy path. A parked job
// keeps the request it parked with (Job.parked) until its grant, so an
// aborted steal requeues it with its seniority intact.

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
func (g *Galaxy) parkInSchedulerLocked(job *Job, now time.Duration) {
	gang := job.submit.GPUs
	if gang <= 0 {
		// The wrapper's pinned device list (version-tag IDs) implies the
		// gang size the tool expects.
		if req, ok := job.tool.GPURequirement(); ok {
			if ids, err := req.GPUIDs(); err == nil && len(ids) > 0 {
				gang = len(ids)
			}
		}
	}
	if gang <= 0 {
		gang = 1
	}
	req := &sched.Request{
		ID:         job.ID,
		User:       job.User,
		Priority:   job.submit.Priority,
		GPUs:       gang,
		EstRuntime: job.submit.EstRuntime,
		Submitted:  job.Submitted,
	}
	if job.hints != nil {
		req.Prefer = job.hints.prefer
	}
	if req.Submitted == 0 {
		// Mirror sched.Submit's zero-means-now default so the kept
		// request agrees with what the scheduler records.
		req.Submitted = now
	}
	if err := g.sched.Submit(*req, now); err != nil {
		g.moveLocked(job, StateError, err.Error(), now)
		return
	}
	g.moveLocked(job, StateQueued, fmt.Sprintf("queued: awaiting gang of %d GPU(s)", gang), now)
	g.obsv.Parked()
	job.note(step{kind: stepPark, at: now, detail: "park"})
	job.parked = req
	g.schedJobs[job.ID] = job
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
		job := g.schedJobs[rej.ID]
		delete(g.schedJobs, rej.ID)
		if job == nil || job.Done() {
			continue
		}
		g.moveLocked(job, StateError, rej.Reason, now)
	}
	for _, st := range dec.Starts {
		if job := g.schedJobs[st.ID]; job != nil {
			g.launchScheduledLocked(job, st, now)
		}
	}
	denied := g.processGateDenialsLocked(now)
	if !dec.Empty() || denied {
		g.recordQueueLocked(now)
	}
}

// launchScheduledLocked starts one granted job on exactly its device gang.
func (g *Galaxy) launchScheduledLocked(job *Job, st sched.Start, now time.Duration) {
	job.parked = nil
	dest, err := g.Conf.Destination(core.GPUDestination)
	if err != nil {
		delete(g.schedJobs, job.ID)
		g.sched.Release(job.ID, now)
		g.moveLocked(job, StateError, err.Error(), now)
		return
	}
	decision := core.Decision{
		Destination:    dest,
		GPUEnabled:     true,
		Devices:        st.Devices,
		VisibleDevices: core.VisibleDevices(st.Devices),
		Reason:         st.Reason,
	}
	g.obsv.Granted()
	job.note(step{kind: stepQueue, at: now, detail: "grant"})
	job.gang = true
	g.launchLocked(job, decision, now)
}

// recordQueueLocked samples queue depth into the scheduler's metrics.
func (g *Galaxy) recordQueueLocked(now time.Duration) {
	if g.sched == nil {
		return
	}
	g.sched.RecordDepth(now)
}
