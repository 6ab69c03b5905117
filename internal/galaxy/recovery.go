package galaxy

import (
	"errors"
	"fmt"
	"time"

	"gyan/internal/journal"
)

// Crash recovery and handler failover. With a journal attached (WithJournal)
// every job state transition is appended to a durable write-ahead log, and a
// freshly built Galaxy can be rebuilt from the log with Recover, in one pass
// over the records: terminal jobs rematerialize with their failure logs,
// quarantine state is replayed from the attempt records, and non-terminal
// jobs requeue as a new run epoch with their original submission time, so
// seniority survives the restart. One whose trail holds a record the
// lifecycle refused fails instead.
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
// under g.mu, with the job the record is about (nil for a workflow record):
// the record goes through stampJournalLocked and journal.Append,
// which for a durable-class record waits for the fsync covering it. Append
// errors are latched, not propagated — the dispatch path never fails on
// durability; a server reads the latch (JournalError) before it acks.
func (g *Galaxy) logJournal(j *Job, rec journal.Record) {
	if rec, ok := g.stampJournalLocked(j, rec); ok {
		g.latchJournalErrLocked(g.journal.Append(rec))
	}
}

// stageJournal is logJournal without the wait: it stages the record with
// journal.AppendAsync and returns its ticket (0 without a journal or once
// the journal has failed). submitJob stages through it so that Submit can
// wait for the fsync, with awaitDurable, after releasing g.mu.
func (g *Galaxy) stageJournal(j *Job, rec journal.Record) uint64 {
	rec, ok := g.stampJournalLocked(j, rec)
	if !ok {
		return 0
	}
	tick, err := g.journal.AppendAsync(rec)
	g.latchJournalErrLocked(err)
	return tick
}

// stampJournalLocked is what every journaled transition goes through before
// it is staged: report it to the observer, append its step to the job's
// trail (j is nil for a workflow record), and stamp the handler. It returns
// false when no journal is attached. Caller holds g.mu.
func (g *Galaxy) stampJournalLocked(j *Job, rec journal.Record) (journal.Record, bool) {
	g.obsv.Transition(rec)
	if j != nil {
		g.noteRecordLocked(j, &rec)
	}
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
	// Action is what recovery did: "kept" (done state restored: terminal,
	// or stolen by another handler),
	// "requeued" (own non-terminal job redispatched), "adopted" (another
	// handler's job taken over, then requeued) or "failed" (unrecoverable:
	// tool or dataset no longer available, or a record the lifecycle
	// refused on its open trail).
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
	// handlers), and jobs whose tool or dataset no longer exists. A kept
	// stolen job counts in none of them.
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
// reported, any other error aborts. One pass folds each record
// (journal.History.Add) and applies each legal one to its job through its
// inverse (Job.apply); then each job's state is restored from its trail.
// Completed GPU runtimes are re-credited to fair share, and every non-terminal
// job requeues in ID order as a fresh run epoch with its original submission
// time, adopted first when its trail names another handler — or, when its
// trail holds a refused record, fails durably, naming the first one's kind
// and ticket. Journaled dataset names are
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

	// Attempts charge their culprits in record order, across jobs, which
	// rebuilds the quarantine's counts, spans and cooldowns exactly. A job
	// record is a step of its job's trail, refused or not.
	var hist journal.History
	for i := range recs {
		rec := &recs[i]
		if rec.Type == journal.TypeAttempt {
			for _, d := range rec.Devices {
				g.quarantine.RecordFault(d, rec.At)
			}
			rep.Faults = append(rep.Faults, replayedFault{At: rec.At, Op: rec.Op, Class: rec.Class, Devices: rec.Devices})
		}
		t, legal := hist.Add(rec)
		if t == nil {
			continue
		}
		job := g.jobs[rec.Job]
		if job == nil { // rec is the submit that opened t
			// Even a done job's dataset: an admin resubmit of a dead letter
			// runs on it, and a resumed workflow step takes its parent's.
			job = &Job{ID: rec.Job, Dataset: g.datasets[rec.Dataset]}
			g.jobs[rec.Job] = job
			g.nextID = max(g.nextID, rec.Job)
		}
		if s, ok := stepOf(rec); ok {
			job.note(s)
		}
		if legal {
			job.apply(rec)
		}
	}
	rep.QuarantineRestored = len(g.quarantine.Spans())
	rep.LastRecordAt = hist.LastAt
	now := g.Engine.Clock().AdvanceTo(hist.LastAt + opts.RestartDelay)
	rep.ResumedAt = now

	for _, id := range hist.Order {
		h := hist.Jobs[id]
		job := g.jobs[id]
		job.restore(h)
		// A handler with no ID (journaling off) claims every job as its own.
		foreign := h.Owner != "" && g.handlerID != "" && h.Owner != g.handlerID
		if foreign {
			job.owner = h.Owner
		}
		open, action := !h.State.Done(), "kept"
		if open {
			action = g.requeueLocked(job, h, now, rep)
		}
		switch {
		case action == "failed":
			rep.Failed++
		case action != "kept":
			rep.Requeued++
		case job.State == StateDeadLetter:
			rep.DeadLettered++
		case job.State == StateOK:
			rep.Completed++
			// Re-credit the completed run's GPU-seconds so fair share does
			// not reset across the restart. Requeued work is deliberately
			// not credited here — its new run is charged on release, so
			// nothing is double-charged.
			if g.sched != nil && job.GPUEnabled && len(job.Devices) > 0 && job.Finished > job.Started {
				g.sched.RestoreUsage(job.User,
					float64(len(job.Devices))*(job.Finished-job.Started).Seconds())
			}
		case job.State == StateError:
			rep.Errored++
		}
		owner := h.Owner
		if foreign && open {
			owner = g.handlerID // adopted
		}
		rep.Jobs = append(rep.Jobs, RecoveredJob{ID: id, Tool: job.ToolID, State: job.State, Action: action, Owner: owner})
	}

	g.rebuildWorkflowsLocked(&hist, rep, now)
	g.recovery = rep
	return rep, nil
}

// requeueLocked disposes of a job whose trail is open, returning the action
// the report records. This handler holds the journal lock, so the job's
// owner is dead: an orphaned steal is closed, another handler's job is
// adopted, and the job requeues here as a fresh run epoch — or, when its
// tool or dataset is gone, fails with the reason, journaled like any
// terminal transition so the next recovery keeps the verdict.
func (g *Galaxy) requeueLocked(job *Job, h *journal.Trail, now time.Duration, rep *RecoveryReport) string {
	if job.State == StatePrepared {
		// This handler crashed mid-steal, and standalone recovery has no
		// thief that could double-run the job, so the steal aborts. (A
		// cluster's survivors settle an orphaned prepare with its thief.)
		g.moveLocked(job, StateQueued, "recovery: orphaned prepare requeued", now)
	}
	action := "requeued"
	if job.owner != "" {
		g.logJournal(job, adoptRecord(job.ID, g.handlerID, job.owner, now))
		job.owner = ""
		rep.Adopted++
		action = "adopted"
	}
	binding, err := g.resolveRequeueLocked(job, h)
	if err != nil {
		g.moveLocked(job, StateError, err.Error(), now)
		return "failed"
	}
	info := "recovered: requeued after handler restart"
	if len(h.Starts) > 0 {
		info = fmt.Sprintf("recovered: rerunning as epoch %d after handler crash", job.run+1)
	}
	g.moveLocked(job, StateQueued, info, now)
	if job.Submitted == 0 {
		// A true t=0 submission would hit the zero-means-now defaults
		// downstream and lose its seniority; a nanosecond keeps it at the
		// front of every queue.
		job.Submitted = time.Nanosecond
	}
	// ID-order requeue at the same instant: the engine's FIFO tie-break
	// preserves submission seniority through dispatch.
	job.bind(binding)
	g.plantStart(job, 0)
	return action
}

// resolveRequeueLocked checks that a requeued job's trail holds no record
// the lifecycle refused (a kill racing a steal, which a rerun would undo),
// that its tool and dataset still exist on this handler, and that its params
// and dataset pass the submit check: a journal an older engine wrote may hold
// a job it would refuse.
func (g *Galaxy) resolveRequeueLocked(job *Job, h *journal.Trail) (*ToolBinding, error) {
	if len(h.Illegal) > 0 {
		r := h.Illegal[0]
		return nil, fmt.Errorf("unrecoverable: the journal holds a %s record (ticket %d) the job's lifecycle refuses", r.Type, r.Tick)
	}
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

// ErrNoJob is what ResubmitDeadLetter and Kill wrap when the ID names no
// job — the one failure that is the caller's addressing mistake rather than
// the job's state.
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
	if !movesBy(job, StateQueued, journal.TypeResubmit) {
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
	g.moveLocked(job, StateQueued, fmt.Sprintf("admin resubmit: fresh retry budget (%d prior failure(s) retained)",
		len(job.Failures)), now)
	// The job restarts from its submit record alone, as a recovered one
	// does: its done move dropped its fallback pin and workflow hints.
	job.bind(binding)
	g.plantStart(job, 0)
	return job, nil
}

// SnapshotJournal compacts the journal (journal.Compact): its records, less
// torn tails, become one snapshot, each keeping its ticket, and every older
// segment is deleted, so a compacted journal folds to the same trails, Starts
// included. It takes no engine lock, and journal writes wait only for the
// seal of the live segment, not for the copy.
func (g *Galaxy) SnapshotJournal() error {
	if g.journal == nil {
		return fmt.Errorf("galaxy: no journal attached")
	}
	return g.journal.Compact()
}
