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
// rebuilds the submission from it (AcceptTransfer) and resolves its dataset
// by name from its own registry.
//
// Every ownership record is fsynced before the call that writes it returns.

// stealCandidatesLocked selects up to max safely movable jobs for transfer
// to `to` among the jobs parked in the batch scheduler, all locally owned:
// queued (never started), not a workflow step (its run stays with its
// workflow) and on no dataset in skip. A job pinned to a fallback
// destination never parks, so none is offered. Juniors first — stealing the
// youngest costs the least seniority.
func (g *Galaxy) stealCandidatesLocked(max int, to string, skip map[string]bool) []*Job {
	if g.sched == nil || max <= 0 || to == "" || to == g.handlerID {
		return nil
	}
	var cands []*Job
	for _, j := range g.schedJobs {
		if j.State == StateQueued && j.WorkflowID == 0 && !skip[j.submit.Dataset] {
			cands = append(cands, j)
		}
	}
	// Juniors first: latest submission, ties broken by highest ID.
	sort.Slice(cands, func(a, b int) bool {
		ja, jb := cands[a], cands[b]
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
	for _, job := range cands {
		xfer := xferBase + uint64(len(out))
		g.sched.Remove(job.ID)
		delete(g.schedJobs, job.ID)
		prep := g.stealRecord(journal.TypeStealPrepare, job.ID, to, xfer, now)
		job.steal = &prep
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
	if job == nil || !movesBy(job, StateStolen, journal.TypeStealRetire) {
		return false
	}
	job.owner = job.steal.Handler
	g.moveLocked(job, StateStolen, stolenInfo(job.owner), g.Engine.Clock().Now())
	return true
}

// AbortSteal moves a prepared job back to queued — the thief never
// acknowledged, or refused — and re-submits the request it parked with, so
// its gang, priority and seniority are those it had. Returns false if the
// job is not prepared.
func (g *Galaxy) AbortSteal(jobID int, reason string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	job := g.jobs[jobID]
	if job == nil || !movesBy(job, StateQueued, journal.TypeStealAbort) {
		return false
	}
	now := g.Engine.Clock().Now()
	g.moveLocked(job, StateQueued, fmt.Sprintf("steal aborted: %s", reason), now)
	if job.parked.Submitted == 0 {
		job.parked.Submitted = time.Nanosecond
	}
	if err := g.sched.Submit(*job.parked, now); err != nil {
		g.moveLocked(job, StateError, err.Error(), now)
		return true
	}
	g.schedJobs[jobID] = job
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
// the transfer exactly-once across crashes on either side. A zero
// submission time becomes a nanosecond, so a true t=0 job does not fall into
// the zero-means-now defaults downstream and lose its seniority.
func (g *Galaxy) AcceptTransfer(from string, sub journal.Record) (*Job, error) {
	at := sub.Submitted
	if at == 0 {
		at = time.Nanosecond
	}
	ds, _ := g.Dataset(sub.Dataset)
	return g.Submit(sub.Tool, sub.Params, ds, SubmitOptions{
		Runtime: sub.Runtime, GPURequest: sub.GPURequest, User: sub.User,
		Priority: sub.Priority, GPUs: sub.GPUs, EstRuntime: sub.EstRuntime,
		DatasetName: sub.Dataset, submittedAt: at, transferFrom: from,
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
