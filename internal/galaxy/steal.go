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
//   - the victim moves the job to prepared, the thief its tentative owner
//     (PrepareSteal), then to stolen once the thief has accepted (RetireSteal;
//     a victim restart never re-runs it) or back to queued (AbortSteal);
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
// to `to`: queued (never started), locally owned, free of cross-handler
// entanglements (workflow steps and destination-pinned resubmissions stay
// put) and on no dataset in skip. Juniors first — stealing the youngest
// costs the least seniority.
func (g *Galaxy) stealCandidatesLocked(max int, to string, skip map[string]bool) []*schedEntry {
	if g.sched == nil || max <= 0 || to == "" || to == g.handlerID {
		return nil
	}
	var cands []*schedEntry
	for _, e := range g.schedJobs {
		j := e.pending.job
		if j.State != StateQueued || skip[j.submit.Dataset] {
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

// preparedSteal is a prepared job's steal in flight (Job.steal): the
// scheduler entry, so an abort can requeue the job in place, and the thief
// and transfer ID its retire and abort records name.
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
// movable jobs leave the local scheduler, move to prepared with `to` their
// tentative owner, and are returned packaged for the wire; they still belong
// here until RetireSteal or AbortSteal. Transfer IDs are xferBase,
// xferBase+1, ... in return order. A job whose dataset is in skip (names the
// thief refused for want of the payload) is not offered.
func (g *Galaxy) PrepareSteal(max int, to string, xferBase uint64, skip map[string]bool) []PreparedSteal {
	g.mu.Lock()
	defer g.mu.Unlock()
	cands := g.stealCandidatesLocked(max, to, skip)
	now := g.Engine.Clock().Now()
	out := make([]PreparedSteal, 0, len(cands))
	for _, e := range cands {
		job := e.pending.job
		xfer := xferBase + uint64(len(out))
		g.sched.Remove(job.ID)
		delete(g.schedJobs, job.ID)
		job.steal = &preparedSteal{entry: e, to: to, xfer: xfer}
		g.moveLocked(job, StatePrepared, fmt.Sprintf("steal prepared: tentative owner %q (xfer %d)", to, xfer), now)
		out = append(out, PreparedSteal{JobID: job.ID, Xfer: xfer, T: job.submit})
	}
	if len(out) > 0 {
		g.recordQueueLocked(now)
	}
	return out
}

// RetireSteal is the victim's phase two after the thief's accept: the
// prepared job moves to stolen, owned by the thief. Returns false if the job
// is not prepared: already retired (a duplicate accept) or aborted.
func (g *Galaxy) RetireSteal(jobID int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	job := g.jobs[jobID]
	if job == nil || lifecycle[job.State].moves[StateStolen] != journal.TypeStealRetire {
		return false
	}
	job.owner = job.steal.to
	g.moveLocked(job, StateStolen, fmt.Sprintf("stolen by handler %q", job.owner), g.Engine.Clock().Now())
	return true
}

// AbortSteal moves a prepared job back to queued — the thief never
// acknowledged, or refused — and requeues it with its original submission
// time, seniority intact. Returns false if the job is not prepared.
func (g *Galaxy) AbortSteal(jobID int, reason string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	job := g.jobs[jobID]
	if job == nil || lifecycle[job.State].moves[StateQueued] != journal.TypeStealAbort {
		return false
	}
	now := g.Engine.Clock().Now()
	e := job.steal.entry
	g.moveLocked(job, StateQueued, fmt.Sprintf("steal aborted: %s", reason), now)
	if e.req.Submitted == 0 {
		e.req.Submitted = time.Nanosecond
	}
	if err := g.sched.Submit(e.req, now); err != nil {
		g.moveLocked(job, StateError, err.Error(), now)
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
