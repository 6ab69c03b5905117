package galaxy

import (
	"errors"
	"fmt"
	"sort"
	"time"

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
// Ownership is lease-based, with two guards against split-brain. The
// structural one is the journal directory's exclusive flock (journal.Open):
// two live processes can never append to the same journal, and the kernel
// releases a dead process's lock, so merely being able to open the journal
// proves the previous owner is gone. The lease records layer failover
// semantics on top: each handler piggybacks heartbeat leases onto its
// journal writes (at least every leaseTTL/2 of activity) and, in
// gyan-server, also on a wall-clock ticker (WithWallClock stamps each lease
// with real time, since virtual time stands still on an idle server). A job
// is owned by the handler that journaled its submit record until an adopt
// record transfers it. During recovery a handler only requeues jobs it owns
// — a foreign job is adopted (with an adopt record) only when its owner's
// lease has expired (judged in wall time when both sides have wall clocks)
// and RecoverOptions.AdoptExpired is set, otherwise it is left orphaned for
// its owner to resume. Because a requeued run is a fresh epoch and
// completed epochs are journaled, a job is never double-executed: the worst
// a crash costs is re-running work whose completion record was still
// buffered.
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

// DefaultLeaseTTL is how long a heartbeat asserts ownership when
// WithLeaseTTL is not configured.
const DefaultLeaseTTL = 30 * time.Second

// WithJournal attaches a durable job-state journal and names this handler
// for lease and ownership records.
func WithJournal(j *journal.Journal, handlerID string) Option {
	return func(g *Galaxy) {
		g.journal = j
		g.handlerID = handlerID
		if g.leaseTTL == 0 {
			g.leaseTTL = DefaultLeaseTTL
		}
	}
}

// WithAsyncDurable trades the per-submit durability ack for throughput:
// instead of blocking until the submit record's fsync, Submit returns as
// soon as the record is staged and stamps Job.DurableTicket with its commit
// ticket. The caller awaits durability in bulk — Galaxy.AwaitDurable(ticket)
// or the journal's commit watermark — and must not acknowledge the job to
// its own users before that returns: a crash between stage and flush drops
// the submit exactly as it drops any staged record. No-op without a journal.
func WithAsyncDurable() Option {
	return func(g *Galaxy) { g.asyncDurable = true }
}

// WithLeaseTTL sets how long a handler heartbeat asserts job ownership.
// Non-positive values keep the default.
func WithLeaseTTL(d time.Duration) Option {
	return func(g *Galaxy) {
		if d > 0 {
			g.leaseTTL = d
		}
	}
}

// WithWallClock gives the handler a wall-clock source for lease records.
// Virtual time stands still while a server is idle, so handler liveness
// cannot be judged from virtual lease deadlines alone: with a wall clock
// set, every heartbeat is also stamped with real time, and a recovering
// standby that passes RecoverOptions.WallNow compares those stamps against
// its own wall clock before declaring an owner dead. Deterministic
// experiments leave it unset and rely on virtual-time lease math.
func WithWallClock(now func() time.Time) Option {
	return func(g *Galaxy) { g.wallNow = now }
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
	g.leaseMu.Lock()
	defer g.leaseMu.Unlock()
	return g.journalErr
}

// latchJournalErr records the first append failure.
func (g *Galaxy) latchJournalErr(err error) {
	g.leaseMu.Lock()
	if g.journalErr == nil {
		g.journalErr = err
	}
	g.leaseMu.Unlock()
}

// LastRecovery returns the report of the Recover call that built this
// instance (nil for a cold start).
func (g *Galaxy) LastRecovery() *RecoveryReport {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.recovery
}

// logJournal appends one record and, for a durable-class record, waits for
// the fsync covering it.
func (g *Galaxy) logJournal(rec journal.Record) { g.appendJournal(rec, true) }

// appendJournal is the one seam every journaled transition crosses: report
// it to the observer, stamp the handler, piggyback a heartbeat lease when the
// last one is older than half the TTL, append. It requires no lock of its
// own: lease state hides behind leaseMu and the journal serializes
// internally — lock-free submitters and g.mu-holding engine callbacks both
// land here. Append errors are latched, not propagated — the dispatch path
// never fails on durability.
//
// With wait false the record is only staged and its commit ticket returned,
// so the caller can await the fsync later via AwaitDurable (0 with no
// journal attached).
func (g *Galaxy) appendJournal(rec journal.Record, wait bool) uint64 {
	g.obsv.Transition(rec)
	if g.journal == nil {
		return 0
	}
	if rec.Handler == "" {
		rec.Handler = g.handlerID
	}
	g.maybeHeartbeat(rec.At)
	var tick uint64
	var err error
	if wait {
		err = g.journal.Append(rec)
	} else {
		tick, err = g.journal.AppendAsync(rec)
	}
	if err != nil {
		g.latchJournalErr(err)
	}
	return tick
}

// AwaitDurable blocks until the journal's commit watermark covers the given
// ticket (a Job.DurableTicket from an async-durable submit): the submit
// record, and everything staged before it, is then fsynced. It returns an
// error if the journal closed or crashed with the ticket still un-fsynced —
// the submit was dropped and must not be treated as acknowledged. A zero
// ticket or a missing journal returns immediately.
func (g *Galaxy) AwaitDurable(tick uint64) error {
	if g.journal == nil {
		return nil
	}
	return g.journal.AwaitDurable(tick)
}

// maybeHeartbeat writes a lease record if the newest one is stale. The
// staleness check-and-claim runs under leaseMu so concurrent writers emit one
// lease, not one each; the append itself happens outside the lock. With
// concurrent producers the lease may interleave slightly out of At order with
// their activity records — replay folds leases by handler, not by position,
// so the skew is harmless.
func (g *Galaxy) maybeHeartbeat(now time.Duration) {
	g.leaseMu.Lock()
	if g.leaseWritten && now < g.lastLease+g.leaseTTL/2 {
		g.leaseMu.Unlock()
		return
	}
	g.leaseWritten = true
	g.lastLease = now
	g.leaseMu.Unlock()
	rec := journal.Record{
		Type: journal.TypeLease, At: now, Handler: g.handlerID, TTL: g.leaseTTL,
	}
	if g.wallNow != nil {
		rec.Wall = g.wallNow().UnixNano()
	}
	if err := g.journal.Append(rec); err != nil {
		g.latchJournalErr(err)
	}
}

// WriteLease forces a heartbeat at the current virtual time (a no-op
// without a journal) and flushes it to disk: a lease only proves liveness
// once a peer can read it, so it must not sit in the group-commit buffer
// across an idle stretch. gyan-server calls this on a wall-clock ticker;
// it is also useful before a long quiet period.
func (g *Galaxy) WriteLease() {
	if g.journal == nil {
		return
	}
	g.leaseMu.Lock()
	g.leaseWritten = false
	g.leaseMu.Unlock()
	g.maybeHeartbeat(g.Engine.Clock().Now())
	if err := g.journal.Sync(); err != nil {
		g.latchJournalErr(err)
	}
}

// LeaseInfo summarizes one handler's heartbeat trail in a replayed journal.
type LeaseInfo struct {
	// First and Last are the handler's first and newest heartbeat times.
	First time.Duration `json:"first"`
	Last  time.Duration `json:"last"`
	// Deadline is when the newest lease expires (Last + TTL).
	Deadline time.Duration `json:"deadline"`
	// WallLast and WallDeadline are the newest heartbeat's wall-clock stamp
	// and expiry in unix nanoseconds (0 when the owner had no wall clock;
	// see WithWallClock).
	WallLast     int64 `json:"wall_last,omitempty"`
	WallDeadline int64 `json:"wall_deadline,omitempty"`
	// Expired reports whether the lease had lapsed at recovery time — in
	// wall time when both sides carry wall clocks, else in virtual time.
	Expired bool `json:"expired"`
}

// RecoveredJob is one job's disposition in a RecoveryReport.
type RecoveredJob struct {
	ID    int      `json:"id"`
	Tool  string   `json:"tool"`
	State JobState `json:"state"`
	// Action is what recovery did: "kept" (terminal state restored),
	// "requeued" (own non-terminal job redispatched), "adopted" (foreign
	// job taken over after lease expiry, then requeued), "orphaned" (left
	// for a live foreign owner) or "failed" (unrecoverable: tool or
	// dataset no longer available).
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
	// jobs kept, non-terminal jobs requeued (Adopted of those from dead
	// handlers), jobs left to live foreign owners, and jobs whose tool or
	// dataset no longer exists.
	Completed    int `json:"completed"`
	Errored      int `json:"errored"`
	DeadLettered int `json:"dead_lettered"`
	Requeued     int `json:"requeued"`
	Adopted      int `json:"adopted"`
	Orphaned     int `json:"orphaned"`
	Failed       int `json:"failed"`

	// Workflows counts the workflow runs rebuilt from journaled
	// definitions; WorkflowStepsResumed counts their member steps put back
	// in motion (requeued jobs reattached plus unsubmitted ready steps
	// released at the resumed time).
	Workflows            int `json:"workflows,omitempty"`
	WorkflowStepsResumed int `json:"workflow_steps_resumed,omitempty"`

	// Jobs lists every job's disposition in ID order.
	Jobs []RecoveredJob `json:"jobs"`
	// Leases maps handler IDs to their heartbeat trails.
	Leases map[string]LeaseInfo `json:"leases"`
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
	// Datasets resolves journaled dataset names back to payloads; a
	// non-terminal job whose dataset is missing recovers as failed.
	Datasets map[string]any
	// RestartDelay is how far past the newest record the engine resumes —
	// the (virtual) downtime between crash and restart. Recovery compares
	// lease deadlines against the resumed time, so a delay longer than the
	// lease TTL makes every pre-crash lease expired.
	RestartDelay time.Duration
	// AdoptExpired lets this handler take over jobs whose owner's lease
	// has expired (writing adopt records). Without it, foreign jobs are
	// left orphaned regardless of lease state.
	AdoptExpired bool
	// WallNow is the recovering handler's wall-clock time in unix
	// nanoseconds. When both it and a lease's wall stamp are present, lease
	// expiry is judged in real time — an owner that is idle in virtual time
	// but still heartbeating on its wall-clock ticker is alive and keeps
	// its jobs. Zero falls back to virtual-time expiry (deterministic
	// experiments).
	WallNow int64
}

// Recover rebuilds this Galaxy from a journal replay. It must be called on
// a fresh instance (tools registered, nothing submitted) before the engine
// runs; replayErr is whatever Replay returned — a *CorruptRecordError is
// treated as the expected torn-tail crash artifact and reported, any other
// error aborts. Terminal jobs are rematerialized with their failure logs,
// quarantine charges are replayed, completed GPU runtimes are re-credited
// to fair share, and non-terminal jobs owned (or adopted) by this handler
// requeue in ID order as fresh run epochs with their original submission
// times.
func (g *Galaxy) Recover(recs []journal.Record, replayErr error, opts RecoverOptions) (*RecoveryReport, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.jobs.size() > 0 || g.nextID.Load() != 0 {
		return nil, fmt.Errorf("galaxy: recover requires a fresh instance (have %d jobs)", g.jobs.size())
	}
	rep := &RecoveryReport{
		Handler: g.handlerID,
		Records: len(recs),
		Leases:  make(map[string]LeaseInfo),
	}
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
	for id, l := range hist.Leases {
		li := LeaseInfo{
			First: l.First, Last: l.Last, Deadline: l.Deadline,
			WallLast: l.WallLast, WallDeadline: l.WallDeadline,
			Expired: now >= l.Deadline,
		}
		if opts.WallNow > 0 && li.WallLast > 0 {
			// Real time trumps virtual time for liveness: an idle server's
			// virtual clock stands still, so only the wall-clock heartbeat
			// trail can distinguish "quiet" from "dead".
			li.Expired = opts.WallNow >= li.WallDeadline
		}
		rep.Leases[id] = li
	}

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
		if int64(id) > g.nextID.Load() {
			g.nextID.Store(int64(id))
		}
		job := g.materializeLocked(id, h, opts)
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
			g.jobs.insert(job)
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

		// Non-terminal: ownership decides. A foreign job is requeued only
		// when its owner's lease expired and adoption is allowed. A handler
		// with no ID (journaling off) claims every job as its own.
		owner := h.Owner
		foreign := owner != "" && g.handlerID != "" && owner != g.handlerID
		if foreign {
			li, seen := rep.Leases[owner]
			live := seen && !li.Expired
			if live || !opts.AdoptExpired {
				job.State = StateQueued
				job.owner = owner
				state := "expired"
				if live {
					state = "live"
				}
				job.Info = fmt.Sprintf("orphaned: owned by handler %q (lease %s)", owner, state)
				rep.Orphaned++
				rj.Action = "orphaned"
				rj.State = job.State
				g.jobs.insert(job)
				rep.Jobs = append(rep.Jobs, rj)
				continue
			}
			g.logJournal(journal.Record{
				Type: journal.TypeAdopt, At: now, Job: id, From: owner,
			})
			job.submit.Handler = g.handlerID
			rep.Adopted++
			rj.Owner = g.handlerID
		}

		binding, dataset, rerr := g.resolveRequeueLocked(job, opts)
		if rerr != nil {
			job.State = StateError
			job.Info = rerr.Error()
			job.Finished = now
			rep.Failed++
			rj.Action = "failed"
			rj.State = job.State
			g.jobs.insert(job)
			rep.Jobs = append(rep.Jobs, rj)
			continue
		}
		job.Dataset = dataset
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
		g.jobs.insert(job)
		rep.Jobs = append(rep.Jobs, rj)

		sub := job.submit
		sopts := SubmitOptions{
			Runtime: sub.Runtime, User: sub.User, Priority: sub.Priority,
			GPUs: sub.GPUs, EstRuntime: sub.EstRuntime, DatasetName: sub.Dataset,
		}
		requeued := job
		// ID-order requeue at the same instant: the engine's FIFO
		// tie-break preserves submission seniority through dispatch.
		g.Engine.After(0, func(at time.Duration) {
			g.startJob(requeued, binding, sopts, at)
		})
	}

	g.rebuildWorkflowsLocked(hist, rep, opts, now)

	// Assert this handler's ownership of whatever it just rebuilt.
	if g.journal != nil {
		g.leaseMu.Lock()
		g.leaseWritten = false
		g.leaseMu.Unlock()
		g.maybeHeartbeat(now)
	}
	g.recovery = rep
	return rep, nil
}

// materializeLocked rebuilds one Job value from its folded trail (without
// deciding its disposition).
func (g *Galaxy) materializeLocked(id int, h *journal.Trail, opts RecoverOptions) *Job {
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
		datasetName: sub.Dataset,
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
		job.VisibleDevices = deviceList(h.Start.Devices)
	}
	// Resolve the dataset opportunistically even for terminal jobs, so an
	// admin resubmit of a recovered dead-letter has a payload to run.
	if ds, ok := opts.Datasets[sub.Dataset]; ok {
		job.Dataset = ds
	}
	return job
}

// resolveRequeueLocked checks that a requeued job's tool and dataset still
// exist on this handler.
func (g *Galaxy) resolveRequeueLocked(job *Job, opts RecoverOptions) (*ToolBinding, any, error) {
	binding, err := g.Tool(job.ToolID)
	if err != nil {
		return nil, nil, fmt.Errorf("unrecoverable: %v", err)
	}
	if job.datasetName == "" {
		if job.WorkflowID != 0 {
			// A workflow step's input often flows from its parents rather
			// than the dataset registry; the workflow rebuild re-resolves
			// it (rebuildWorkflowsLocked) before the requeue event fires.
			return binding, nil, nil
		}
		return nil, nil, fmt.Errorf("unrecoverable: no dataset name journaled for job %d", job.ID)
	}
	ds, ok := opts.Datasets[job.datasetName]
	if !ok {
		return nil, nil, fmt.Errorf("unrecoverable: dataset %q unavailable after recovery", job.datasetName)
	}
	return binding, ds, nil
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
	job := g.jobs.get(id)
	if job == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoJob, id)
	}
	if job.State != StateDeadLetter {
		return nil, fmt.Errorf("galaxy: job %d is %q, not %q", id, job.State, StateDeadLetter)
	}
	binding, err := g.Tool(job.ToolID)
	if err != nil {
		return nil, err
	}
	if job.Dataset == nil && job.datasetName != "" {
		return nil, fmt.Errorf("galaxy: job %d's dataset %q is not loaded; cannot resubmit",
			id, job.datasetName)
	}
	now := g.Engine.Clock().Now()
	job.attemptBase = len(job.Failures)
	job.killed = false
	job.State = StateQueued
	job.Finished = 0
	job.Info = fmt.Sprintf("admin resubmit: fresh retry budget (%d prior failure(s) retained)",
		len(job.Failures))
	g.logJournal(journal.Record{Type: journal.TypeResubmit, At: now, Job: job.ID})
	sub := job.submit
	opts := SubmitOptions{
		Runtime: job.Runtime, User: job.User, Priority: sub.Priority,
		GPUs: sub.GPUs, EstRuntime: sub.EstRuntime, DatasetName: job.datasetName,
	}
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
// It write-holds snapGate in addition to g.mu: lock-free submitters journal
// without g.mu, and a submit record staged after the state scan but before
// the snapshot installs would land in a segment compaction deletes — an
// acknowledged job silently erased. The gate quiesces them for the duration;
// everything else that journals runs under g.mu.
func (g *Galaxy) SnapshotJournal() error {
	g.snapGate.Lock()
	defer g.snapGate.Unlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.journal == nil {
		return fmt.Errorf("galaxy: no journal attached")
	}
	now := g.Engine.Clock().Now()
	recs := []journal.Record{{
		Type: journal.TypeLease, At: now, Handler: g.handlerID, TTL: g.leaseTTL,
	}}
	// Workflow definitions first: a compacted journal must still rebuild
	// every run's DAG, and finished runs keep their recorded verdict.
	wfIDs := make([]int, 0, len(g.workflows))
	for id := range g.workflows {
		wfIDs = append(wfIDs, id)
	}
	sort.Ints(wfIDs)
	for _, id := range wfIDs {
		wr := g.workflows[id]
		wr.mu.Lock()
		recs = append(recs, wr.defRecord)
		if wr.state == StateOK || wr.state == StateError {
			recs = append(recs, journal.Record{
				Type: journal.TypeComplete, At: wr.finishedAt, Workflow: wr.ID,
				State: string(wr.state), Msg: wr.info,
			})
		}
		wr.mu.Unlock()
	}
	for _, j := range g.jobs.all() {
		sub := j.submit
		if sub.Type == "" {
			// Job predates journaling (journal attached mid-flight);
			// synthesize the submit record from the job itself.
			sub = journal.Record{
				Type: journal.TypeSubmit, At: j.Submitted, Job: j.ID,
				Tool: j.ToolID, User: j.User, Params: j.Params,
				Dataset: j.datasetName, Runtime: j.Runtime, Submitted: j.Submitted,
			}
		}
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
