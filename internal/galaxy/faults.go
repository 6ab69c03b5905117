package galaxy

import (
	"errors"
	"fmt"
	"time"

	"gyan/internal/faults"
	"gyan/internal/sim"
	"gyan/internal/smi"
)

// Fault handling for the dispatch path. With a fault plan armed
// (WithFaultPlan), every layer a real Galaxy job crosses can fail on
// command: the nvidia-smi probe, the container launch, the executor
// invocation, the run itself (mid-run crashes and slow-device stalls) and
// the batch scheduler's gang starts. What happens next depends on the
// error's classification:
//
//   - transient faults retry with exponential backoff (WithRetry) until the
//     attempt budget is spent, preserving the job's original submission time
//     so requeues keep their seniority;
//   - permanent faults — and transients out of budget — move the job to the
//     dead-letter state with its full failure log attached;
//   - unclassified errors (bad params, unknown tools, real executor errors)
//     keep Galaxy's original StateError/resubmission semantics untouched.
//
// A Quarantine (WithQuarantine) accumulates per-device fault counts as
// failures are recorded; once a device crosses the threshold it disappears
// from every survey the mapper and the batch scheduler see, so new work
// routes around the bad GPU until the cooldown expires.

// retrySeed seeds the backoff-jitter RNG. A constant keeps retry delays
// reproducible run-to-run; the fault plan's own seed is the experiment knob.
const retrySeed = 0x9E3779B97F4A7C15

// Failure is one classified fault a job hit, in attempt order — the job's
// failure log, surfaced through the API and the timeline.
type Failure struct {
	// At is the virtual time the failure was recorded.
	At time.Duration
	// Attempt is the 1-based dispatch attempt that failed.
	Attempt int
	// Op is the hook point that failed.
	Op faults.Op
	// Class is the failure's retry classification.
	Class faults.Class
	// Msg is the failure text.
	Msg string
	// Devices are the fault's culprit GPU minor IDs (the ones charged to
	// the quarantine), journaled so replay can rebuild quarantine state.
	Devices []int
}

// WithFaultPlan arms a fault-injection plan across the dispatch path; the
// container engine is armed with the same plan so launches consult it too.
func WithFaultPlan(p *faults.Plan) Option {
	return func(g *Galaxy) {
		g.faultPlan = p
		g.Containers.Faults = p
	}
}

// WithRetry sets the transient-fault recovery policy: how many dispatch
// attempts a job gets and how the delays between them grow. The zero Backoff
// means no retries — the first classified fault dead-letters the job.
func WithRetry(b faults.Backoff) Option {
	return func(g *Galaxy) { g.retry = b }
}

// WithJobTimeout bounds each run's execution time, measured from launch.
// A run still going at the deadline is aborted and treated as a transient
// fault (stalled device, wedged tool), entering the same retry/dead-letter
// machinery as injected faults.
func WithJobTimeout(d time.Duration) Option {
	return func(g *Galaxy) { g.jobTimeout = d }
}

// WithQuarantine installs a device quarantine fed by the failure log. While
// a device is quarantined it is filtered out of every survey the mapper and
// the batch scheduler work from.
func WithQuarantine(q *faults.Quarantine) Option {
	return func(g *Galaxy) { g.quarantine = q }
}

// FaultPlan returns the armed fault plan (nil when none).
func (g *Galaxy) FaultPlan() *faults.Plan { return g.faultPlan }

// DeviceQuarantine returns the armed quarantine tracker (nil when none).
func (g *Galaxy) DeviceQuarantine() *faults.Quarantine { return g.quarantine }

// DeadLetters returns the jobs that exhausted recovery, in submission order.
func (g *Galaxy) DeadLetters() []*Job {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []*Job
	for _, j := range g.jobsLocked() {
		if j.State == StateDeadLetter {
			out = append(out, j)
		}
	}
	return out
}

// surveyLocked probes the cluster through the nvidia-smi interface on the
// job's behalf. The probe itself is a fault-injection site (OpProbe), and
// quarantined devices are hidden from the result so the mapper cannot place
// work on a blacklisted GPU.
//
// The per-job fault check runs before the cache is consulted: a survey hit
// must not let a job skip its own injected probe fault. Only the
// render+parse round trip behind the fault gate is shared, and only while
// the device report is unchanged (see smi.Cache).
func (g *Galaxy) surveyLocked(job *Job, now time.Duration) (smi.Usage, error) {
	site := faults.Site{Op: faults.OpProbe, Job: job.ID, Tool: job.ToolID, Attempt: job.Attempt()}
	if f, fired := g.faultPlan.Check(now, site); fired {
		return smi.Usage{}, faults.NewError(site, f)
	}
	survey, err := g.surveyCache.Usage(g.Cluster, now)
	if err != nil {
		return smi.Usage{}, err
	}
	return survey.Without(g.quarantine.Quarantined(now)), nil
}

// failLocked routes a dispatch or execution error through the fault model.
// Whatever the failing run holds is released first (releaseLocked), so
// retries re-enter dispatch with a clean slate. Unclassified errors keep the
// legacy StateError semantics.
func (g *Galaxy) failLocked(job *Job, err error) {
	now := g.Engine.Clock().Now()
	g.releaseLocked(job)
	class, classified := faults.ClassOf(err)
	if !classified {
		g.moveLocked(job, StateError, err.Error(), now)
		return
	}

	attempt := job.Attempt()
	var op faults.Op
	var culprits []int
	var ferr *faults.Error
	if errors.As(err, &ferr) {
		op = ferr.Site.Op
		culprits = ferr.Culprits
	}
	f := Failure{At: now, Attempt: attempt, Op: op, Class: class, Msg: err.Error(), Devices: culprits}
	job.Failures = append(job.Failures, f)
	g.logJournal(job, attemptRecord(job.ID, f))
	// Device-attributed faults feed the quarantine: only the culprit
	// devices are charged, so a device-keyed fault on a multi-GPU gang
	// leaves the gang's healthy members allocatable. Probe and launch
	// faults carry no device set and never count against a GPU.
	for _, d := range culprits {
		if g.quarantine.RecordFault(d, now) {
			g.obsv.Quarantined()
		}
	}

	if class == faults.Transient && attempt < g.retry.Attempts() {
		// Delay is 1-based over retries: the first failure (attempt 1)
		// waits Delay(1), the second Delay(2), and so on.
		delay := g.retry.Delay(attempt, g.retryRNG)
		g.moveLocked(job, StateQueued, fmt.Sprintf("retrying (attempt %d/%d) in %v after transient fault: %v",
			attempt+1, g.retry.Attempts(), delay, err), now)
		g.plantStart(job, delay)
		return
	}
	g.moveLocked(job, StateDeadLetter, fmt.Sprintf("dead-letter after %d attempt(s): %v", attempt, err), now)
}

// armRunFaultsLocked plants the post-launch fault events for one run: slow-
// device stalls stretch the completion time, mid-run crashes abort the run
// partway through, and the execution timeout (if configured) caps the whole
// thing. It returns the (possibly stretched) completion time the caller
// should schedule the normal completion at. Every planted event guards on
// the run's launch epoch and fires on the run's devices.
func (g *Galaxy) armRunFaultsLocked(job *Job, start, end, now time.Duration) time.Duration {
	run, devices, attempt := job.run, job.Devices, job.Attempt()

	// Slow device: the run completes, but later than the executor modeled.
	stallSite := faults.Site{Op: faults.OpStall, Job: job.ID, Tool: job.ToolID, Attempt: attempt, Devices: devices}
	if f, fired := g.faultPlan.Check(now, stallSite); fired {
		stall := f.Stall
		if stall <= 0 {
			stall = end - start // default: the device runs at half speed
		}
		end += stall
		job.Info = fmt.Sprintf("%s; stalled %v by a slow device", job.Info, stall)
	}

	// abortAt plants the run's failure with err at `at`; it stands down if
	// the run has ended by then.
	abortAt := func(at time.Duration, err error) {
		g.Engine.Schedule(at, func(at time.Duration) {
			g.mu.Lock()
			defer g.mu.Unlock()
			if job.runs(run) {
				job.stop(at)
				g.failLocked(job, err)
			}
		})
	}

	// Mid-run crash: the executor dies After into the run (clamped inside
	// the run's span; unset crashes halfway).
	crashSite := faults.Site{Op: faults.OpCrash, Job: job.ID, Tool: job.ToolID, Attempt: attempt, Devices: devices}
	if f, fired := g.faultPlan.Check(now, crashSite); fired {
		after := f.After
		if after <= 0 || start+after >= end {
			after = (end - start) / 2
		}
		abortAt(start+after, faults.NewError(crashSite, f))
	}

	// Execution timeout: in virtual time the completion instant is known at
	// launch, so the deadline event is only planted when it would fire. An
	// earlier crash ends the run and the deadline stands down.
	if g.jobTimeout > 0 {
		deadline := now + g.jobTimeout
		if end > deadline {
			abortAt(deadline, &faults.Error{
				Site:     faults.Site{Op: faults.OpStall, Job: job.ID, Tool: job.ToolID, Attempt: attempt, Devices: devices},
				Class:    faults.Transient,
				Msg:      fmt.Sprintf("run exceeded the %v execution timeout", g.jobTimeout),
				Culprits: devices,
			})
		}
	}
	return end
}

// gateDenial records a gang start the fault plan vetoed during a scheduler
// cycle. The gate closure runs inside sched.Cycle with g.mu already held, so
// denials are queued and processed after the cycle returns.
type gateDenial struct {
	id  int
	err error
}

// installStartGate hooks the fault plan into the batch scheduler's gang
// starts. Called from New once options are applied, so it is independent of
// option order.
func (g *Galaxy) installStartGate() {
	g.sched.SetStartGate(func(id int, devices []int, now time.Duration) error {
		// Attempt 1 stands for a job galaxy does not manage.
		site := faults.Site{Op: faults.OpGang, Job: id, Attempt: 1, Devices: devices}
		if job := g.schedJobs[id]; job != nil {
			site.Tool, site.Attempt = job.ToolID, job.Attempt()
		}
		if f, fired := g.faultPlan.Check(now, site); fired {
			err := faults.NewError(site, f)
			g.gateDenials = append(g.gateDenials, gateDenial{id: id, err: err})
			return err
		}
		return nil
	})
}

// processGateDenialsLocked drains the denials a scheduler cycle queued: each
// denied job leaves the scheduler queue and enters the retry/dead-letter
// machinery, so repeated gang faults are bounded by the attempt budget (and
// feed the quarantine through the gang's device set).
func (g *Galaxy) processGateDenialsLocked(now time.Duration) bool {
	if len(g.gateDenials) == 0 {
		return false
	}
	denials := g.gateDenials
	g.gateDenials = nil
	for _, d := range denials {
		job := g.schedJobs[d.id]
		if job == nil {
			continue
		}
		g.sched.Remove(d.id)
		delete(g.schedJobs, d.id)
		g.failLocked(job, d.err)
	}
	return true
}

// newRetryRNG builds the deterministic jitter source for backoff delays.
func newRetryRNG() *sim.RNG { return sim.NewRNG(retrySeed) }
