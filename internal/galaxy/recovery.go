package galaxy

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"gyan/internal/core"
	"gyan/internal/faults"
	"gyan/internal/journal"
)

// Crash recovery and handler failover. With a journal attached (WithJournal)
// every job state transition is appended to a durable write-ahead log, and a
// freshly built Galaxy can be rebuilt from the log with Recover: terminal
// jobs rematerialize with their failure logs, quarantine state is replayed
// from the attempt records, and non-terminal jobs requeue as a new run epoch
// with their original submission time, so seniority survives the restart.
// Placement is not recovered: a start record says where a run went, a job that
// never started comes back with none, and the requeue maps it from a fresh
// survey at the resumed instant — GYAN's rule, so the decision is not journaled.
//
// Ownership is the journal lock. journal.Open takes an exclusive flock on
// the directory: two live processes can never append to the same journal,
// and the kernel releases a dead process's lock, so a handler that opened
// the journal knows every previous owner is gone. Recover therefore requeues
// every non-terminal job in the replay. A job is owned by the handler that
// journaled its submit record until an adopt record transfers it; a job whose
// trail names another handler is adopted (an adopt record, counted in
// RecoveryReport.Adopted) before it requeues. Because a requeued run is a
// fresh epoch and completed epochs are journaled, a job is never
// double-executed: the worst a crash costs is re-running work whose
// completion record was still buffered.
//
// Workflows recover too: SubmitDAG journals the full definition
// (journal.TypeWorkflow) and every member job's submit record carries its
// workflow/step identity, so replay rebuilds each WorkflowRun, folds the
// steps that completed, reattaches completion hooks to requeued member jobs
// and releases the steps whose parents finished pre-crash (see
// rebuildWorkflowsLocked in dag_recovery.go).
//
// Known limits, accepted for the reproduction: step Transform closures are
// not journaled (a recovered step falls back to pass-through input), a
// resubmit_destination pin does not survive replay, and a pending submit
// Delay is not re-applied — recovered queued jobs redispatch immediately at
// the resumed time.

// WithJournal attaches a durable job-state journal and names this handler
// in its ownership records.
func WithJournal(j *journal.Journal, handlerID string) Option {
	return func(g *Galaxy) {
		g.journal = j
		g.handlerID = handlerID
	}
}

// WithWallClock does nothing: the engine reads no wall clock.
//
// Deprecated: it stamped handler lease records, which are retired; only
// bench/w_http.go:371 still passes it.
func WithWallClock(func() time.Time) Option {
	return func(*Galaxy) {}
}

// HandlerID returns this handler's name in the journal ("" when journaling
// is off).
func (g *Galaxy) HandlerID() string { return g.handlerID }

// JournalStats returns the journal's write-side counters and whether a
// journal is attached.
func (g *Galaxy) JournalStats() (journal.Stats, bool) {
	if g.journal == nil {
		return journal.Stats{}, false
	}
	return g.journal.Stats(), true
}

// JournalError returns the first journal append failure, if any. Append
// errors never fail the job path — durability degrades, dispatch does not.
func (g *Galaxy) JournalError() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.journalErr
}

// latchJournalErrLocked records the first journal failure; a nil err is a
// no-op. Caller holds g.mu.
func (g *Galaxy) latchJournalErrLocked(err error) {
	if g.journalErr == nil {
		g.journalErr = err
	}
}

// LastRecovery returns the report of the Recover call that built this
// instance (nil for a cold start).
func (g *Galaxy) LastRecovery() *RecoveryReport {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.recovery
}

// logJournal is the seam every journaled transition but a submit crosses,
// under g.mu: the record goes through stampJournalLocked and journal.Append,
// which for a durable-class record waits for the fsync covering it. Append
// errors are latched, not propagated — the dispatch path never fails on
// durability; a server reads the latch (JournalError) before it acks.
func (g *Galaxy) logJournal(rec journal.Record) {
	if rec, ok := g.stampJournalLocked(rec); ok {
		g.latchJournalErrLocked(g.journal.Append(rec))
	}
}

// stageJournal is logJournal without the wait: it stages the record with
// journal.AppendAsync and returns its ticket (0 without a journal or once
// the journal has failed). submitJob stages through it so that Submit can
// wait for the fsync, with awaitDurable, after releasing g.mu.
func (g *Galaxy) stageJournal(rec journal.Record) uint64 {
	rec, ok := g.stampJournalLocked(rec)
	if !ok {
		return 0
	}
	tick, err := g.journal.AppendAsync(rec)
	g.latchJournalErrLocked(err)
	return tick
}

// stampJournalLocked is what every journaled transition goes through before
// it is staged: report it to the observer and stamp the handler. It returns
// false when no journal is attached. Caller holds g.mu.
func (g *Galaxy) stampJournalLocked(rec journal.Record) (journal.Record, bool) {
	g.obsv.Transition(rec)
	if g.journal == nil {
		return rec, false
	}
	if rec.Handler == "" {
		rec.Handler = g.handlerID
	}
	return rec, true
}

// awaitDurable waits for the fsync covering tick, a ticket stageJournal
// returned. It takes no lock: Submit calls it after releasing g.mu.
func (g *Galaxy) awaitDurable(tick uint64) error {
	if g.journal == nil {
		return nil
	}
	return g.journal.AwaitDurable(tick)
}

// RecoveredJob is one job's disposition in a RecoveryReport.
type RecoveredJob struct {
	ID    int      `json:"id"`
	Tool  string   `json:"tool"`
	State JobState `json:"state"`
	// Action is what recovery did: "kept" (terminal state restored),
	// "requeued" (own non-terminal job redispatched), "adopted" (another
	// handler's job taken over, then requeued) or "failed" (unrecoverable:
	// tool or dataset no longer available).
	Action string `json:"action"`
	// Owner is the handler owning the job after recovery.
	Owner string `json:"owner,omitempty"`
}

// RecoveryReport describes one journal replay: what was read, what was
// rebuilt, and how every job was dispositioned.
type RecoveryReport struct {
	// Handler is the recovering handler's ID.
	Handler string `json:"handler"`
	// Records is the number of journal records replayed.
	Records int `json:"records"`
	// CorruptTail describes the torn/corrupt record replay stopped at
	// ("" for a clean journal). Everything before it was recovered.
	CorruptTail string `json:"corrupt_tail,omitempty"`
	// LastRecordAt is the newest replayed record's virtual time; ResumedAt
	// is the virtual time the engine resumed at (LastRecordAt plus the
	// configured restart delay).
	LastRecordAt time.Duration `json:"last_record_at"`
	ResumedAt    time.Duration `json:"resumed_at"`

	// Job disposition counts: terminal jobs kept (ok/error), dead-lettered
	// jobs kept, non-terminal jobs requeued (Adopted of those from other
	// handlers), and jobs whose tool or dataset no longer exists.
	Completed    int `json:"completed"`
	Errored      int `json:"errored"`
	DeadLettered int `json:"dead_lettered"`
	Requeued     int `json:"requeued"`
	Adopted      int `json:"adopted"`
	Failed       int `json:"failed"`
	// Orphaned is always 0: Recover leaves no job to another owner.
	//
	// Deprecated: only bench/w_inproc.go:539 still reads it.
	Orphaned int `json:"-"`

	// Workflows counts the workflow runs rebuilt from journaled
	// definitions; WorkflowStepsResumed counts their member steps put back
	// in motion (requeued jobs reattached plus unsubmitted ready steps
	// released at the resumed time).
	Workflows            int `json:"workflows,omitempty"`
	WorkflowStepsResumed int `json:"workflow_steps_resumed,omitempty"`

	// Jobs lists every job's disposition in ID order.
	Jobs []RecoveredJob `json:"jobs"`
	// Faults is the replayed classified-failure history: these events
	// predate this engine's start, so they never fired through its live
	// fault plan.
	Faults []replayedFault `json:"faults,omitempty"`
	// QuarantineRestored counts the quarantine spans rebuilt by replaying
	// the attempt records' culprit devices.
	QuarantineRestored int `json:"quarantine_restored"`
}

// replayedFault is one attempt record recovered from a journal replay: when
// it failed, at which hook point, its retry classification and its culprit
// GPU minor IDs.
type replayedFault struct {
	At      time.Duration
	Op      string
	Class   string
	Devices []int
}

// RecoverOptions tune a journal replay.
type RecoverOptions struct {
	// Datasets are registered (RegisterDataset) before the replay.
	//
	// Deprecated: register datasets on the engine instead; recovery
	// re-resolves journaled names from its registry, and a non-terminal job
	// whose dataset is missing there recovers as failed. Only
	// bench/w_inproc.go:496 still sets it.
	Datasets map[string]any
	// RestartDelay is how far past the newest record the engine resumes —
	// the (virtual) downtime between crash and restart.
	RestartDelay time.Duration
	// AdoptExpired is read by nothing: every other handler's job is adopted.
	//
	// Deprecated: only bench/w_inproc.go:496 still sets it.
	AdoptExpired bool
}

// Recover rebuilds this Galaxy from a journal replay. It must be called on
// a fresh instance (tools registered, nothing submitted) before the engine
// runs. recs must be the replay of the directory this Galaxy's journal holds,
// read after journal.Open took its lock: the lock is what proves every
// previous owner dead, so a replay read before it may miss a live holder's
// last acknowledged records. replayErr is whatever Replay returned — a
// *CorruptRecordError is treated as the expected torn-tail crash artifact and
// reported, any other error aborts. Terminal jobs are rematerialized with
// their failure logs, quarantine charges are replayed, completed GPU runtimes
// are re-credited to fair share, and every non-terminal job requeues in ID
// order as a fresh run epoch with its original submission time, adopted
// first when its trail names another handler. Journaled dataset names are
// re-resolved from the engine's registry (RegisterDataset), so datasets are
// registered before Recover.
func (g *Galaxy) Recover(recs []journal.Record, replayErr error, opts RecoverOptions) (*RecoveryReport, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.jobs) > 0 || g.nextID != 0 {
		return nil, fmt.Errorf("galaxy: recover requires a fresh instance (have %d jobs)", len(g.jobs))
	}
	for name, ds := range opts.Datasets {
		g.datasets[name] = ds
	}
	rep := &RecoveryReport{Handler: g.handlerID, Records: len(recs)}
	if replayErr != nil {
		var cerr *journal.CorruptRecordError
		if !errors.As(replayErr, &cerr) {
			return nil, replayErr
		}
		if cerr.IsSnapshot() {
			// A torn segment tail costs at most the record mid-write when
			// the power went out; a corrupt snapshot truncates the
			// compacted base and loses an unknown amount of acknowledged
			// history. Refuse to build a silently incomplete world.
			return nil, fmt.Errorf("galaxy: journal snapshot is corrupt (%v); refusing to recover from a truncated base — restore or move aside the journal directory", cerr)
		}
		rep.CorruptTail = cerr.Error()
	}

	hist := journal.Fold(recs)
	rep.LastRecordAt = hist.LastAt
	now := g.Engine.Clock().AdvanceTo(hist.LastAt + opts.RestartDelay)
	rep.ResumedAt = now

	// Replay the quarantine: charging every attempt's culprit devices in
	// record order rebuilds counts, spans and cooldown deadlines exactly.
	// Device state is the one thing read off the stream rather than the
	// fold: it depends on the order of attempts across jobs.
	for _, rec := range recs {
		if rec.Type != journal.TypeAttempt {
			continue
		}
		for _, d := range rec.Devices {
			g.quarantine.RecordFault(d, rec.At)
		}
		rep.Faults = append(rep.Faults, replayedFault{
			At: rec.At, Op: rec.Op, Class: rec.Class, Devices: rec.Devices,
		})
	}
	rep.QuarantineRestored = len(g.quarantine.Spans())

	for _, id := range hist.Order {
		h := hist.Jobs[id]
		g.nextID = max(g.nextID, id)
		job := g.materializeLocked(id, h)
		rj := RecoveredJob{ID: id, Tool: job.ToolID, Owner: h.Owner}

		if h.Terminal != nil {
			switch {
			case h.Terminal.Type == journal.TypeDeadLetter:
				job.State = StateDeadLetter
				rep.DeadLettered++
			case h.Terminal.State == string(StateOK):
				job.State = StateOK
				rep.Completed++
			default:
				job.State = StateError
				rep.Errored++
			}
			job.Finished = h.Terminal.At
			if h.Terminal.Msg != "" {
				job.Info = h.Terminal.Msg
			}
			// Re-credit the completed run's GPU-seconds so fair share does
			// not reset across the restart. Requeued work is deliberately
			// not credited here — its new run is charged on release, so
			// nothing is double-charged.
			if g.sched != nil && job.State == StateOK && job.GPUEnabled &&
				len(job.Devices) > 0 && job.Finished > job.Started {
				g.sched.RestoreUsage(job.User,
					float64(len(job.Devices))*(job.Finished-job.Started).Seconds())
			}
			rj.Action = "kept"
			rj.State = job.State
			g.jobs[job.ID] = job
			rep.Jobs = append(rep.Jobs, rj)
			continue
		}

		if h.Prepared != nil {
			// The trail ends mid-transfer: a steal prepare with no retire
			// or abort — this handler crashed after detaching the job.
			// Standalone recovery has no thief that could double-run it, so
			// an abort record closes the trail and the job requeues here.
			// (A clustered member never recovers this way: its survivors
			// settle orphaned prepares with the tentative thief — see
			// internal/cluster.)
			g.logJournal(journal.Record{
				Type: journal.TypeStealAbort, At: now, Job: id,
				Handler: h.Prepared.Handler, From: g.handlerID, Xfer: h.Prepared.Xfer,
				Msg: "recovery: orphaned prepare requeued",
			})
		}

		// Non-terminal: this handler holds the journal lock, so the job's
		// owner is dead and the job requeues here. A job another handler
		// owned is adopted first. A handler with no ID (journaling off)
		// claims every job as its own.
		owner := h.Owner
		foreign := owner != "" && g.handlerID != "" && owner != g.handlerID
		if foreign {
			g.logJournal(journal.Record{
				Type: journal.TypeAdopt, At: now, Job: id, From: owner,
			})
			job.submit.Handler = g.handlerID
			rep.Adopted++
			rj.Owner = g.handlerID
		}

		binding, rerr := g.resolveRequeueLocked(job)
		if rerr != nil {
			job.State = StateError
			job.Info = rerr.Error()
			job.Finished = now
			rep.Failed++
			rj.Action = "failed"
			rj.State = job.State
			g.jobs[job.ID] = job
			rep.Jobs = append(rep.Jobs, rj)
			continue
		}
		job.State = StateQueued
		if h.Start != nil {
			job.Info = fmt.Sprintf("recovered: rerunning as epoch %d after handler crash", job.run+1)
		} else {
			job.Info = "recovered: requeued after handler restart"
		}
		if job.Submitted == 0 {
			// A true t=0 submission would hit the zero-means-now defaults
			// downstream and lose its seniority; a nanosecond keeps it at
			// the front of every queue.
			job.Submitted = time.Nanosecond
		}
		rep.Requeued++
		if foreign {
			rj.Action = "adopted"
		} else {
			rj.Action = "requeued"
		}
		rj.State = job.State
		g.jobs[job.ID] = job
		rep.Jobs = append(rep.Jobs, rj)

		sopts := submitOptions(job.submit)
		requeued := job
		// ID-order requeue at the same instant: the engine's FIFO
		// tie-break preserves submission seniority through dispatch.
		g.Engine.After(0, func(at time.Duration) {
			g.startJob(requeued, binding, sopts, at)
		})
	}

	g.rebuildWorkflowsLocked(hist, rep, now)
	g.recovery = rep
	return rep, nil
}

// materializeLocked rebuilds one Job value from its folded trail (without
// deciding its disposition).
func (g *Galaxy) materializeLocked(id int, h *journal.Trail) *Job {
	sub := h.Submit
	job := &Job{
		ID:          id,
		ToolID:      sub.Tool,
		Params:      sub.Params,
		User:        userOrAnonymous(sub.User),
		Runtime:     sub.Runtime,
		Submitted:   sub.Submitted,
		WorkflowID:  sub.Workflow,
		StepID:      sub.Step,
		submit:      sub,
		attemptBase: h.AttemptBase,
	}
	for _, a := range h.Attempts {
		job.Failures = append(job.Failures, Failure{
			At: a.At, Attempt: a.Attempt, Op: faults.Op(a.Op),
			Class: classFromString(a.Class), Msg: a.Msg, Devices: a.Devices,
		})
	}
	if h.Start != nil {
		job.Started = h.Start.At
		job.run = h.Start.Epoch
		if h.Start.Destination != "" {
			job.Destination = h.Start.Destination
		}
		job.GPUEnabled = h.Start.GPUEnabled
		job.Devices = h.Start.Devices
		job.VisibleDevices = core.VisibleDevices(h.Start.Devices)
	}
	// Resolve the dataset even for terminal jobs: an admin resubmit of a
	// recovered dead-letter needs a payload to run, and a resumed workflow
	// step takes its parent's.
	job.Dataset = g.datasets[sub.Dataset]
	return job
}

// resolveRequeueLocked checks that a requeued job's tool and dataset still
// exist on this handler and that its params and dataset pass the submit
// check: a journal an older engine wrote may hold a job it would refuse.
func (g *Galaxy) resolveRequeueLocked(job *Job) (*ToolBinding, error) {
	binding, err := g.toolLocked(job.ToolID)
	if err != nil {
		return nil, fmt.Errorf("unrecoverable: %v", err)
	}
	switch name := job.submit.Dataset; {
	case name != "":
		if _, ok := g.datasets[name]; !ok {
			return nil, fmt.Errorf("unrecoverable: dataset %q unavailable after recovery", name)
		}
	case job.WorkflowID == 0:
		return nil, fmt.Errorf("unrecoverable: no dataset name journaled for job %d", job.ID)
	}
	// A workflow step without a dataset name takes its input from its
	// parents; the workflow rebuild re-resolves it (rebuildWorkflowsLocked)
	// before the requeue event fires.
	if err := binding.check(job.Params, job.Dataset); err != nil {
		return nil, fmt.Errorf("unrecoverable: %v", err)
	}
	return binding, nil
}

// submitOptions rebuilds the options a submit record was written with. It
// is the one conversion from a journaled submission back to a live one:
// recovery's requeue, an admin resubmit and an accepted transfer all make
// it. A zero submission time becomes a nanosecond, so a true t=0 job does
// not fall into the zero-means-now defaults downstream and lose its
// seniority.
func submitOptions(sub journal.Record) SubmitOptions {
	at := sub.Submitted
	if at == 0 {
		at = time.Nanosecond
	}
	return SubmitOptions{
		Runtime: sub.Runtime, GPURequest: sub.GPURequest, User: sub.User,
		Priority: sub.Priority, GPUs: sub.GPUs, EstRuntime: sub.EstRuntime,
		DatasetName: sub.Dataset, submittedAt: at,
	}
}

// classFromString parses a journaled faults.Class back.
func classFromString(s string) faults.Class {
	if s == faults.Permanent.String() {
		return faults.Permanent
	}
	return faults.Transient
}

// ErrNoJob is what ResubmitDeadLetter wraps when the ID names no job — the
// one failure that is the caller's addressing mistake rather than the job's
// state.
var ErrNoJob = errors.New("galaxy: no such job")

// ResubmitDeadLetter replays a dead-lettered job as a fresh run epoch: the
// failure log stays attached for post-mortem, but the retry budget restarts
// (Attempt counts from 1 again). The admin path behind
// POST /api/jobs/{id}/resubmit.
func (g *Galaxy) ResubmitDeadLetter(id int) (*Job, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	job := g.jobs[id]
	if job == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoJob, id)
	}
	if job.State != StateDeadLetter {
		return nil, fmt.Errorf("galaxy: job %d is %q, not %q", id, job.State, StateDeadLetter)
	}
	binding, err := g.toolLocked(job.ToolID)
	if err != nil {
		return nil, err
	}
	// A dead letter an older engine journaled never passed the submit check.
	if err := binding.check(job.Params, job.Dataset); err != nil {
		return nil, fmt.Errorf("galaxy: job %d: %w", id, err)
	}
	if job.Dataset == nil && job.submit.Dataset != "" {
		return nil, fmt.Errorf("galaxy: job %d's dataset %q is not loaded; cannot resubmit",
			id, job.submit.Dataset)
	}
	now := g.Engine.Clock().Now()
	job.attemptBase = len(job.Failures)
	job.killed = false
	job.State = StateQueued
	job.Finished = 0
	job.Info = fmt.Sprintf("admin resubmit: fresh retry budget (%d prior failure(s) retained)",
		len(job.Failures))
	g.logJournal(journal.Record{Type: journal.TypeResubmit, At: now, Job: job.ID})
	opts := submitOptions(job.submit)
	g.Engine.After(0, func(at time.Duration) {
		g.startJob(job, binding, opts, at)
	})
	return job, nil
}

// SnapshotJournal condenses the journal: the current in-memory state is
// re-emitted as the minimal record stream that would rebuild it, installed
// as a snapshot, and every older segment is deleted. Call it during quiet
// periods to bound replay time and disk use.
//
// It holds g.mu across the state scan and WriteSnapshot. Every record is
// staged under g.mu, and a submit record in the same critical section as its
// job's insert, so a record staged before the snapshot — in a segment
// compaction deletes — belongs to a job the snapshot carries.
func (g *Galaxy) SnapshotJournal() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.journal == nil {
		return fmt.Errorf("galaxy: no journal attached")
	}
	now := g.Engine.Clock().Now()
	var recs []journal.Record
	// Workflow definitions first: a compacted journal must still rebuild
	// every run's DAG, and finished runs keep their recorded verdict.
	wfIDs := make([]int, 0, len(g.workflows))
	for id := range g.workflows {
		wfIDs = append(wfIDs, id)
	}
	sort.Ints(wfIDs)
	for _, id := range wfIDs {
		wr := g.workflows[id]
		recs = append(recs, wr.defRecord)
		if wr.state == StateOK || wr.state == StateError {
			recs = append(recs, journal.Record{
				Type: journal.TypeComplete, At: wr.finishedAt, Workflow: wr.ID,
				State: string(wr.state), Msg: wr.info,
			})
		}
	}
	for _, j := range g.jobsLocked() {
		sub := j.submit
		sub.Handler = j.ownerOr(g.handlerID)
		recs = append(recs, sub)
		emitAttempt := func(f Failure) {
			recs = append(recs, journal.Record{
				Type: journal.TypeAttempt, At: f.At, Job: j.ID, Attempt: f.Attempt,
				Op: string(f.Op), Class: f.Class.String(), Msg: f.Msg, Devices: f.Devices,
			})
		}
		// The resubmit marker splits the failure log so replay rebuilds
		// the same attemptBase.
		for i, f := range j.Failures {
			if j.attemptBase > 0 && i == j.attemptBase {
				recs = append(recs, journal.Record{Type: journal.TypeResubmit, At: f.At, Job: j.ID})
			}
			emitAttempt(f)
		}
		if j.attemptBase > 0 && j.attemptBase >= len(j.Failures) {
			recs = append(recs, journal.Record{Type: journal.TypeResubmit, At: now, Job: j.ID})
		}
		if j.run > 0 {
			recs = append(recs, journal.Record{
				Type: journal.TypeStart, At: j.Started, Job: j.ID, Epoch: j.run,
				Destination: j.Destination, GPUEnabled: j.GPUEnabled, Devices: j.Devices,
			})
		}
		switch j.State {
		case StateOK, StateError:
			recs = append(recs, journal.Record{
				Type: journal.TypeComplete, At: j.Finished, Job: j.ID,
				Epoch: j.run, State: string(j.State), Msg: j.Info,
			})
		case StateDeadLetter:
			recs = append(recs, journal.Record{
				Type: journal.TypeDeadLetter, At: j.Finished, Job: j.ID, Msg: j.Info,
			})
		case StatePrepared:
			// An in-flight two-phase steal must survive compaction: without
			// the prepare record, replay would see a plain queued job and
			// requeue it while the thief may be running it.
			if p := g.preparedSteals[j.ID]; p != nil {
				recs = append(recs, journal.Record{
					Type: journal.TypeStealPrepare, At: now, Job: j.ID,
					Handler: p.to, From: g.handlerID, Xfer: p.xfer,
				})
			}
		}
	}
	return g.journal.WriteSnapshot(recs)
}
