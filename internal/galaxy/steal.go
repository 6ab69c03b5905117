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
// The envelope between the two is the victim's own submit record: the thief
// rebuilds the submission from it exactly as recovery does (submitOptions)
// and resolves its dataset by name from its own registry.
//
// Every ownership record is fsynced before the call that writes it returns.

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
		if j.State != StateQueued || j.killed {
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
	// T is the envelope the thief will accept: the job's submit record.
	T journal.Record
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
		out = append(out, PreparedSteal{JobID: job.ID, Xfer: xfer, T: job.submit})
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

// AcceptTransfer resubmits on this handler a job that handler `from`
// submitted, from its submit record sub. The job gets a fresh local ID and
// run epoch but keeps its original submission time, so the batch scheduler
// slots it by the seniority it earned on its previous handler. Its dataset
// is resolved by name from this engine's registry; a name it lacks leaves
// the job without a payload. The submit record is journaled under this
// handler's epoch (chased by an adopt record naming the source), which makes
// the transfer exactly-once across crashes on either side.
func (g *Galaxy) AcceptTransfer(from string, sub journal.Record) (*Job, error) {
	opts := submitOptions(sub)
	opts.transferFrom = from
	ds, _ := g.Dataset(sub.Dataset)
	return g.Submit(sub.Tool, sub.Params, ds, opts)
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

// FreeGPUs counts the devices the mapper would see as available at now:
// the survey it reads, through the same cache, with quarantined devices
// hidden. A cluster member gossips it as its capacity. A survey that cannot
// be read counts none, as the mapper would place nothing on it.
func (g *Galaxy) FreeGPUs(now time.Duration) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	survey, err := g.surveyCache.Usage(g.Cluster, now)
	if err != nil {
		return 0
	}
	return len(survey.Without(g.quarantine.Quarantined(now)).AvailableGPUs)
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
