package galaxy

import (
	"fmt"
	"sort"
	"time"

	"gyan/internal/journal"
)

// Cross-handler job transfer: the work-stealing half of the cluster layer
// (internal/cluster). A transfer moves a *queued, never-started* job from one
// Galaxy instance (the victim, whose GPUs are backlogged) to another (the
// thief, whose GPUs idle) in two journaled phases, so exactly-once survives a
// crash on either end:
//
//   - the victim detaches the job as StatePrepared with the thief journaled
//     as tentative owner (PrepareSteal); once the thief has accepted it marks
//     the job StateStolen and journals the handoff (RetireSteal) — replaying
//     the victim's journal shows the job owned by the thief, so a victim
//     restart never re-runs it — or rolls it back into the queue (AbortSteal);
//   - the thief appends a fresh submit record (owner: thief) carrying the
//     job's ORIGINAL submission time, chased by an adopt record naming the
//     victim (AcceptTransfer) — seniority is preserved under the thief's
//     scheduler and the trail shows provenance.
//
// Under Options.DurableSubmits every ownership record is fsynced.

// TransferredJob is a queued job detached from one handler for resubmission
// on another. It carries everything AcceptTransfer needs to rebuild the
// submission: the dispatch inputs, the scheduler request shape, and the
// original submission time (the seniority lever).
type TransferredJob struct {
	// From is the handler the job left.
	From string
	// FromJob is the job's ID on that handler (for audit trails; the
	// accepting handler issues its own ID).
	FromJob int
	// ToolID, Params, Dataset, DatasetName and Runtime are the original
	// dispatch inputs. Dataset is the live in-process payload and never
	// crosses a serializing transport (json:"-"); a networked receiver
	// re-resolves it from its own dataset registry by DatasetName.
	ToolID      string
	Params      map[string]string
	Dataset     any `json:"-"`
	DatasetName string
	Runtime     string
	// User, Priority, GPUs and EstRuntime reproduce the scheduler request.
	User       string
	Priority   int
	GPUs       int
	EstRuntime time.Duration
	// Submitted is the job's original submission time on the victim's
	// (lockstep-aligned) clock.
	Submitted time.Duration
}

// stealCandidatesLocked selects up to max safely movable jobs for transfer
// to `to`: queued (never started), not killed, locally owned, and free of
// cross-handler entanglements (workflow steps and destination-pinned
// resubmissions stay put). Juniors first — stealing the youngest costs the
// least seniority.
func (g *Galaxy) stealCandidatesLocked(max int, to string) []*schedEntry {
	if g.sched == nil || max <= 0 || to == "" || to == g.handlerID {
		return nil
	}
	var cands []*schedEntry
	for _, e := range g.schedJobs {
		j := e.pending.job
		if j.State != StateQueued || j.killed || j.owner != "" {
			continue
		}
		o := e.pending.opts
		if o.wfID != 0 || o.resubmitDest != "" || o.stageCost != nil {
			continue
		}
		cands = append(cands, e)
	}
	// Juniors first: latest submission, ties broken by highest ID.
	sort.Slice(cands, func(a, b int) bool {
		ja, jb := cands[a].pending.job, cands[b].pending.job
		if ja.Submitted != jb.Submitted {
			return ja.Submitted > jb.Submitted
		}
		return ja.ID > jb.ID
	})
	if len(cands) > max {
		cands = cands[:max]
	}
	return cands
}

// packageTransferLocked builds the TransferredJob envelope for one entry.
func (g *Galaxy) packageTransferLocked(e *schedEntry) TransferredJob {
	job := e.pending.job
	sub := job.Submitted
	if sub == 0 {
		// A true t=0 submission must not collapse into the thief's
		// zero-means-now default and lose its seniority.
		sub = time.Nanosecond
	}
	return TransferredJob{
		From:        g.handlerID,
		FromJob:     job.ID,
		ToolID:      job.ToolID,
		Params:      job.Params,
		Dataset:     job.Dataset,
		DatasetName: job.datasetName,
		Runtime:     job.Runtime,
		User:        job.User,
		Priority:    e.req.Priority,
		GPUs:        e.req.GPUs,
		EstRuntime:  e.req.EstRuntime,
		Submitted:   sub,
	}
}

// preparedSteal tracks one job between PrepareSteal and its resolution,
// keeping the scheduler entry so an abort can requeue it in place.
type preparedSteal struct {
	entry *schedEntry
	to    string
	xfer  uint64
}

// PreparedSteal is one job detached under phase one of a two-phase steal.
type PreparedSteal struct {
	// JobID is the job's local ID on the victim.
	JobID int
	// Xfer is the cluster-assigned transfer ID that names this transfer in
	// journal records and protocol messages (duplicate-delivery dedupe key).
	Xfer uint64
	// T is the envelope the thief will accept.
	T TransferredJob
}

// PrepareSteal is phase one of the two-phase steal protocol: up to max
// movable jobs are detached from the local scheduler, marked StatePrepared
// with `to` journaled as the tentative owner (TypeStealPrepare), and
// returned packaged for the wire. The transfer is not final — the jobs
// still belong here — until RetireSteal journals the handoff, or
// AbortSteal rolls them back into the queue. Transfer IDs are xferBase,
// xferBase+1, ... in return order.
func (g *Galaxy) PrepareSteal(max int, to string, xferBase uint64) []PreparedSteal {
	g.mu.Lock()
	defer g.mu.Unlock()
	cands := g.stealCandidatesLocked(max, to)
	now := g.Engine.Clock().Now()
	out := make([]PreparedSteal, 0, len(cands))
	for _, e := range cands {
		job := e.pending.job
		xfer := xferBase + uint64(len(out))
		g.sched.Remove(job.ID)
		delete(g.schedJobs, job.ID)
		job.State = StatePrepared
		job.Info = fmt.Sprintf("steal prepared: tentative owner %q (xfer %d)", to, xfer)
		g.preparedSteals[job.ID] = &preparedSteal{entry: e, to: to, xfer: xfer}
		g.logJournal(journal.Record{
			Type: journal.TypeStealPrepare, At: now, Job: job.ID,
			Handler: to, From: g.handlerID, Xfer: xfer,
		})
		out = append(out, PreparedSteal{JobID: job.ID, Xfer: xfer, T: g.packageTransferLocked(e)})
	}
	if len(out) > 0 {
		g.recordQueueLocked(now)
	}
	return out
}

// RetireSteal is the victim's phase two after the thief's accept: the
// prepared job becomes StateStolen with ownership journaled to the thief
// (TypeStealRetire). Returns false if the job is not in the prepared set —
// already retired (duplicate accept) or already aborted.
func (g *Galaxy) RetireSteal(jobID int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := g.preparedSteals[jobID]
	if p == nil {
		return false
	}
	delete(g.preparedSteals, jobID)
	now := g.Engine.Clock().Now()
	job := p.entry.pending.job
	job.State = StateStolen
	job.owner = p.to
	job.Finished = now
	job.Info = fmt.Sprintf("stolen by handler %q", p.to)
	g.logJournal(journal.Record{
		Type: journal.TypeStealRetire, At: now, Job: jobID,
		Handler: p.to, From: g.handlerID, Xfer: p.xfer, Msg: "work steal",
	})
	return true
}

// AbortSteal rolls a prepared job back into the local queue: the thief
// never acknowledged (or refused), so the tentative transfer is journaled
// closed (TypeStealAbort) and the job requeues with its original
// submission time — seniority intact.
// Returns false if the job is not in the prepared set.
func (g *Galaxy) AbortSteal(jobID int, reason string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := g.preparedSteals[jobID]
	if p == nil {
		return false
	}
	delete(g.preparedSteals, jobID)
	now := g.Engine.Clock().Now()
	e := p.entry
	job := e.pending.job
	g.logJournal(journal.Record{
		Type: journal.TypeStealAbort, At: now, Job: jobID,
		Handler: p.to, From: g.handlerID, Xfer: p.xfer, Msg: reason,
	})
	job.State = StateQueued
	job.owner = ""
	job.Info = fmt.Sprintf("steal aborted: %s", reason)
	if e.req.Submitted == 0 {
		e.req.Submitted = time.Nanosecond
	}
	if err := g.sched.Submit(e.req, now); err != nil {
		job.Info = err.Error()
		job.finish(StateError, now)
		return true
	}
	g.schedJobs[jobID] = e
	g.recordQueueLocked(now)
	g.scheduleCycle()
	return true
}

// AcceptTransfer resubmits a job detached from another handler on this one.
// The job gets a fresh local ID and run epoch but keeps its original
// submission time, so the batch scheduler slots it by the seniority it
// earned on its previous handler. The submit record is journaled under this
// handler's epoch (chased by an adopt record naming the source), which makes
// the transfer exactly-once across crashes on either side.
func (g *Galaxy) AcceptTransfer(t TransferredJob) (*Job, error) {
	g.snapGate.RLock()
	defer g.snapGate.RUnlock()
	sub := t.Submitted
	if sub == 0 {
		sub = time.Nanosecond
	}
	return g.submitJob(t.ToolID, t.Params, t.Dataset, SubmitOptions{
		Runtime: t.Runtime, User: t.User, Priority: t.Priority,
		GPUs: t.GPUs, EstRuntime: t.EstRuntime, DatasetName: t.DatasetName,
		submittedAt: sub, transferFrom: t.From,
	})
}

// QueuedBacklog returns how many jobs are parked in the batch scheduler's
// queue awaiting a device gang (zero without WithScheduler). The cluster's
// work-stealing pass uses it to find the most-backlogged peer.
func (g *Galaxy) QueuedBacklog() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sched == nil {
		return 0
	}
	return g.sched.QueueDepth()
}

// RunningGangs returns how many scheduler-granted jobs currently hold
// devices (zero without WithScheduler).
func (g *Galaxy) RunningGangs() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sched == nil {
		return 0
	}
	return g.sched.RunningCount()
}
