// Package sched is a GPU-aware batch scheduler layered over GYAN's one-shot
// mapping decision. Where core.Mapper answers "which devices would suit this
// job right now?", sched owns the continuous question a production Galaxy
// faces under sustained load: which of the queued jobs start next, on which
// exact device set, and what happens to everyone else in the meantime.
//
// The scheduler provides four mechanisms on top of the mapper:
//
//   - Priority queues with weighted fair sharing: queued jobs order by
//     priority class first, then by each user's accumulated GPU-seconds
//     divided by their configured weight, so a user who has consumed less
//     than their share moves ahead of a heavy submitter at equal priority.
//
//   - Gang allocation: multi-GPU requests are all-or-nothing. A job asking
//     for two devices either gets two exclusive devices or stays queued; it
//     is never started on a partial set. Device choice among free candidates
//     is delegated to a pluggable Scorer over the nvidia-smi survey,
//     mirroring core.Mapper.Allocate's process-count and memory strategies.
//
//   - Backfill with a head-of-line reservation: when the highest-priority
//     job cannot start, it receives a reservation for the earliest instant
//     enough devices free up (computed from running jobs' runtime
//     estimates). Smaller jobs may slide past it only if they provably do
//     not delay that reservation — either they finish before it matures or
//     they use surplus devices the reservation does not need.
//
//   - Deadline preemption: optionally, a job that has waited longer than
//     PreemptAfter may evict enough strictly-lower-priority running jobs to
//     start. Victims are requeued, not failed.
//
// The scheduler is deliberately passive: it never starts or stops anything
// itself. Cycle returns a Decision (starts, preemptions, rejections) and the
// caller — galaxy.Galaxy driven by the sim engine — executes it, then
// reports completions back through Release. This keeps the scheduler a pure
// deterministic function of its inputs, so experiment traces are exactly
// reproducible.
package sched

import (
	"fmt"
	"sort"
	"time"

	"gyan/internal/smi"
)

// Request describes one job's resource ask, as submitted to the queue.
type Request struct {
	// ID identifies the job (the galaxy job ID).
	ID int
	// User attributes the job for fair-share accounting.
	User string
	// Priority is the job's priority class; higher runs first. Fair
	// sharing orders jobs within one class.
	Priority int
	// GPUs is the gang size: the number of devices the job needs, all
	// granted together or not at all. Must be >= 1.
	GPUs int
	// EstRuntime is the job's walltime estimate (a batch system's time
	// limit). Zero falls back to the scheduler's DefaultEstRuntime. The
	// estimate feeds backfill reservations only; jobs are never killed
	// for overrunning it.
	EstRuntime time.Duration
	// Submitted is the virtual time the job entered the system, used for
	// FIFO tie-breaks and preemption deadlines.
	Submitted time.Duration
	// Prefer lists device minor IDs already holding the job's input data
	// (a workflow step's upstream outputs). With Config.LocalityBonus set,
	// gang allocation discounts these devices' scores so placement lands
	// where the data lives; without the bonus the hint is ignored and the
	// configured Scorer decides alone (locality-blind).
	Prefer []int
}

// Scorer ranks a candidate device under the current nvidia-smi survey;
// lower scores are preferred. The scorers mirror core.Mapper.Allocate's
// policies so a scheduler-driven Galaxy picks devices by the same signals
// as the paper's one-shot mapper.
type Scorer func(minor int, u smi.Usage) float64

// ProcessCountScorer prefers devices with the fewest resident processes —
// the survey signal behind the paper's "Process ID Approach".
func ProcessCountScorer(minor int, u smi.Usage) float64 {
	return float64(len(u.ProcsByGPU[minor]))
}

// Config tunes a Scheduler.
type Config struct {
	// Backfill enables sliding small jobs past a blocked head-of-line
	// job under its reservation. Without it the queue is strict
	// priority/fair-share order.
	Backfill bool
	// PreemptAfter, when positive, lets a job that has waited this long
	// evict strictly-lower-priority running jobs. Zero disables
	// preemption.
	PreemptAfter time.Duration
	// Scorer ranks free devices for gang allocation; nil defaults to
	// ProcessCountScorer.
	Scorer Scorer
	// LocalityBonus is subtracted from a device's score when the request's
	// Prefer list names it, pulling workflow steps onto the devices that
	// already hold their inputs. Zero disables locality-aware placement.
	// Scores from the built-in scorers are process counts, MiB or percent,
	// so a bonus comfortably above the scorer's dynamic range (e.g. 1e6)
	// makes locality dominate; a small bonus only breaks near-ties.
	LocalityBonus float64
	// Weights are per-user fair-share weights; absent users weigh 1. A
	// weight-2 user may hold twice the GPU-seconds of a weight-1 user
	// before falling behind in the queue order.
	Weights map[string]float64
	// DefaultEstRuntime stands in for requests with no estimate; zero
	// defaults to 30s.
	DefaultEstRuntime time.Duration
	// StartGate, when non-nil, is consulted with the chosen device gang
	// before each start is committed — the fault-injection seam for gang
	// starts that die during device allocation (cgroup setup, CUDA context
	// creation). A non-nil error vetoes the start: the job stays queued,
	// its devices stay free this cycle, and the gate call is counted in
	// Metrics.GateDenied. The caller owns rescheduling a later cycle (and
	// bounding repeated denials), otherwise a permanently vetoed job waits
	// forever.
	StartGate func(id int, devices []int, now time.Duration) error
}

// entry is one queued job.
type entry struct {
	req Request
	// enqueued is when the job (re-)entered the queue; requeued victims
	// keep their original Submitted but a fresh enqueued time.
	enqueued time.Duration
}

// runningJob is one job the scheduler has started and not yet released.
type runningJob struct {
	req         Request
	devices     []int
	started     time.Duration
	expectedEnd time.Duration
	// preempting marks a victim whose eviction has been ordered but
	// whose Release has not arrived yet.
	preempting bool
}

// Start orders one queued job onto an exact device gang.
type Start struct {
	ID      int
	Devices []int
	// Backfilled marks starts that slid past a blocked head-of-line job.
	Backfilled bool
	// Wait is the job's total queue wait (now - Submitted).
	Wait   time.Duration
	Reason string
}

// Preempt orders one running job evicted and requeued.
type Preempt struct {
	ID int
	// ForID is the waiting job the eviction unblocks.
	ForID  int
	Reason string
}

// Reject reports a request that can never be satisfied (gang larger than
// the cluster). The caller should fail the job.
type Reject struct {
	ID     int
	Reason string
}

// Decision is the outcome of one scheduling cycle, in execution order.
type Decision struct {
	Starts   []Start
	Preempts []Preempt
	Rejects  []Reject
}

// Empty reports whether the cycle decided nothing.
func (d Decision) Empty() bool {
	return len(d.Starts) == 0 && len(d.Preempts) == 0 && len(d.Rejects) == 0
}

// Scheduler holds the queue and the running set. It is not safe for
// concurrent use; the caller serializes access (galaxy holds its own lock).
type Scheduler struct {
	cfg     Config
	queue   []*entry
	running map[int]*runningJob
	// usage accumulates each user's GPU-seconds for fair sharing.
	usage map[string]float64
	m     Metrics
}

// New returns a scheduler with the given configuration.
func New(cfg Config) *Scheduler {
	if cfg.Scorer == nil {
		cfg.Scorer = ProcessCountScorer
	}
	if cfg.DefaultEstRuntime <= 0 {
		cfg.DefaultEstRuntime = 30 * time.Second
	}
	return &Scheduler{
		cfg:     cfg,
		running: make(map[int]*runningJob),
		usage:   make(map[string]float64),
	}
}

// Config returns the scheduler's configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// SetStartGate installs or replaces the start gate (see Config.StartGate).
// The integration layer uses it to arm fault injection after construction.
func (s *Scheduler) SetStartGate(gate func(id int, devices []int, now time.Duration) error) {
	s.cfg.StartGate = gate
}

// QueueDepth reports the number of queued (not running) jobs.
func (s *Scheduler) QueueDepth() int { return len(s.queue) }

// RunningCount reports the number of jobs the scheduler has in flight.
func (s *Scheduler) RunningCount() int { return len(s.running) }

// Usage returns a user's accumulated GPU-seconds.
func (s *Scheduler) Usage(user string) float64 { return s.usage[user] }

// RestoreUsage credits a user's fair-share account with GPU-seconds accrued
// before this scheduler existed — crash recovery replays completed jobs'
// runtimes through here so a restarted handler does not let a heavy user
// start from a clean slate (and does not double-charge requeued work, which
// is only charged when its new run releases).
func (s *Scheduler) RestoreUsage(user string, gpuSeconds float64) {
	if gpuSeconds <= 0 {
		return
	}
	s.usage[user] += gpuSeconds
}

// Submit enqueues a request at virtual time now. Duplicate IDs (already
// queued or running) are an error.
func (s *Scheduler) Submit(req Request, now time.Duration) error {
	if req.GPUs < 1 {
		return fmt.Errorf("sched: job %d requests %d GPUs", req.ID, req.GPUs)
	}
	if _, dup := s.running[req.ID]; dup {
		return fmt.Errorf("sched: job %d already running", req.ID)
	}
	for _, e := range s.queue {
		if e.req.ID == req.ID {
			return fmt.Errorf("sched: job %d already queued", req.ID)
		}
	}
	if req.Submitted == 0 {
		req.Submitted = now
	}
	s.queue = append(s.queue, &entry{req: req, enqueued: now})
	s.m.Submitted++
	return nil
}

// Remove drops a queued job (killed while waiting). Removing an unknown or
// already-running job is a no-op.
func (s *Scheduler) Remove(id int) {
	for i, e := range s.queue {
		if e.req.ID == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// Release reports that a started job finished (completed, failed, was
// killed, or was preempted) at virtual time now. Its devices become free at
// the next Cycle and its runtime is charged to the user's fair share.
func (s *Scheduler) Release(id int, now time.Duration) {
	r, ok := s.running[id]
	if !ok {
		return
	}
	delete(s.running, id)
	held := now - r.started
	if held > 0 {
		s.usage[r.req.User] += float64(len(r.devices)) * held.Seconds()
	}
}

// weight returns a user's fair-share weight (default 1).
func (s *Scheduler) weight(user string) float64 {
	if w, ok := s.cfg.Weights[user]; ok && w > 0 {
		return w
	}
	return 1
}

// shareScore is the fair-share ordering key: accumulated GPU-seconds over
// weight. Lower is hungrier, so lower goes first.
func (s *Scheduler) shareScore(user string) float64 {
	return s.usage[user] / s.weight(user)
}

// order sorts the queue by effective priority: priority class descending,
// fair-share score ascending, submission time ascending, ID ascending.
func (s *Scheduler) order() {
	sort.SliceStable(s.queue, func(i, j int) bool {
		a, b := s.queue[i].req, s.queue[j].req
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
		as, bs := s.shareScore(a.User), s.shareScore(b.User)
		if as != bs {
			return as < bs
		}
		if a.Submitted != b.Submitted {
			return a.Submitted < b.Submitted
		}
		return a.ID < b.ID
	})
}

// est returns a request's effective runtime estimate.
func (s *Scheduler) est(req Request) time.Duration {
	if req.EstRuntime > 0 {
		return req.EstRuntime
	}
	return s.cfg.DefaultEstRuntime
}

// freeDevices returns the survey's devices minus those held by running
// jobs, sorted ascending.
func (s *Scheduler) freeDevices(u smi.Usage) []int {
	held := make(map[int]bool)
	for _, r := range s.running {
		for _, d := range r.devices {
			held[d] = true
		}
	}
	var free []int
	for _, d := range u.AllGPUs {
		if !held[d] {
			free = append(free, d)
		}
	}
	sort.Ints(free)
	return free
}

// pickGang chooses n devices from candidates by (score, minor). candidates
// must have length >= n.
func pickGang(candidates []int, n int, score Scorer, u smi.Usage) []int {
	ranked := append([]int(nil), candidates...)
	sort.SliceStable(ranked, func(i, j int) bool {
		si, sj := score(ranked[i], u), score(ranked[j], u)
		if si != sj {
			return si < sj
		}
		return ranked[i] < ranked[j]
	})
	gang := append([]int(nil), ranked[:n]...)
	sort.Ints(gang)
	return gang
}

// scorerFor wraps the configured scorer with the request's locality
// preference: preferred devices' scores drop by LocalityBonus, so pickGang's
// (score, minor) ordering visits them first when the bonus outweighs the
// scorer's own signal.
func (s *Scheduler) scorerFor(req Request) Scorer {
	if s.cfg.LocalityBonus <= 0 || len(req.Prefer) == 0 {
		return s.cfg.Scorer
	}
	prefer := toSet(req.Prefer)
	return func(minor int, u smi.Usage) float64 {
		score := s.cfg.Scorer(minor, u)
		if prefer[minor] {
			score -= s.cfg.LocalityBonus
		}
		return score
	}
}

// reservation is the head-of-line job's claim: the earliest time `at` when
// `devices` will all be free for it.
type reservation struct {
	at      time.Duration
	devices map[int]bool
}

// reserve computes the head job's reservation from the free set and the
// running jobs' expected ends. Returns nil when even completing every
// running job cannot satisfy the gang (caller rejects the request).
func (s *Scheduler) reserve(req Request, free []int, now time.Duration) *reservation {
	need := req.GPUs - len(free)
	if need <= 0 {
		return &reservation{at: now, devices: toSet(free)}
	}
	// Sort running jobs by expected end; overrunning jobs are treated as
	// ending imminently so a stale estimate cannot block the queue
	// forever.
	type ending struct {
		at      time.Duration
		devices []int
		id      int
	}
	var ends []ending
	for id, r := range s.running {
		at := r.expectedEnd
		if at <= now {
			at = now + time.Second
		}
		ends = append(ends, ending{at: at, devices: r.devices, id: id})
	}
	sort.Slice(ends, func(i, j int) bool {
		if ends[i].at != ends[j].at {
			return ends[i].at < ends[j].at
		}
		return ends[i].id < ends[j].id
	})
	res := &reservation{devices: toSet(free)}
	for _, e := range ends {
		res.devices = addSet(res.devices, e.devices)
		res.at = e.at
		need -= len(e.devices)
		if need <= 0 {
			return res
		}
	}
	return nil // gang exceeds every device the scheduler will ever hold
}

func toSet(xs []int) map[int]bool {
	m := make(map[int]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

func addSet(m map[int]bool, xs []int) map[int]bool {
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// Cycle makes placement decisions at virtual time now against the given
// nvidia-smi survey. The caller executes the returned decision: each Start
// must be launched on exactly its device gang, each Preempt must abort and
// requeue the named job (calling Release then Submit), each Reject must
// fail the job. Cycle itself mutates only the scheduler's bookkeeping.
func (s *Scheduler) Cycle(now time.Duration, survey smi.Usage) Decision {
	var dec Decision
	total := len(survey.AllGPUs)
	free := s.freeDevices(survey)
	s.order()

	// Reject impossible gangs first so they never block the queue.
	kept := s.queue[:0]
	for _, e := range s.queue {
		if e.req.GPUs > total {
			dec.Rejects = append(dec.Rejects, Reject{
				ID: e.req.ID,
				Reason: fmt.Sprintf("gang of %d exceeds the %d-GPU cluster",
					e.req.GPUs, total),
			})
			s.m.Rejected++
			continue
		}
		kept = append(kept, e)
	}
	s.queue = kept

	// A preemption already in flight means devices are about to free for
	// a waiting job; hold further decisions until the victims release,
	// otherwise backfill would steal the devices the eviction freed.
	for _, r := range s.running {
		if r.preempting {
			return dec
		}
	}

	var res *reservation
	remaining := s.queue[:0]
	for i := 0; i < len(s.queue); i++ {
		e := s.queue[i]
		started := false
		switch {
		case res == nil && len(free) >= e.req.GPUs:
			// Head-of-line position with room: start on the
			// best-scored free devices.
			gang := pickGang(free, e.req.GPUs, s.scorerFor(e.req), survey)
			if s.gateDenied(e.req.ID, gang, now) {
				break // stays queued; devices remain free this cycle
			}
			dec.Starts = append(dec.Starts, s.start(e, gang, now, false,
				fmt.Sprintf("priority dispatch on GPU(s) %v", gang)))
			free = subtract(free, gang)
			started = true
		case res == nil:
			// Blocked head: try eviction past its deadline, else
			// take a reservation that backfill must honor.
			if s.cfg.PreemptAfter > 0 && now-e.req.Submitted >= s.cfg.PreemptAfter {
				if ps := s.preemptFor(e.req, free, now); len(ps) > 0 {
					dec.Preempts = append(dec.Preempts, ps...)
					// Stop scheduling: the freed devices
					// belong to this job at the next cycle.
					remaining = append(remaining, e)
					remaining = append(remaining, s.queue[i+1:]...)
					s.queue = remaining
					return dec
				}
			}
			res = s.reserve(e.req, free, now)
			if res == nil {
				// Unsatisfiable even when idle — defensive; the
				// gang-size reject above should have caught it.
				dec.Rejects = append(dec.Rejects, Reject{
					ID:     e.req.ID,
					Reason: "gang can never be satisfied",
				})
				s.m.Rejected++
				started = true // drop from queue
			}
		case s.cfg.Backfill:
			// Backfill under the head's reservation: surplus
			// devices are fair game; reserved devices only if the
			// job's estimate ends before the reservation matures.
			var surplus, reserved []int
			for _, d := range free {
				if res.devices[d] {
					reserved = append(reserved, d)
				} else {
					surplus = append(surplus, d)
				}
			}
			candidates := surplus
			if now+s.est(e.req) <= res.at {
				candidates = append(candidates, reserved...)
			}
			if len(candidates) >= e.req.GPUs {
				gang := pickGang(candidates, e.req.GPUs, s.scorerFor(e.req), survey)
				if s.gateDenied(e.req.ID, gang, now) {
					break
				}
				dec.Starts = append(dec.Starts, s.start(e, gang, now, true,
					fmt.Sprintf("backfilled onto GPU(s) %v under reservation at %v",
						gang, res.at)))
				free = subtract(free, gang)
				s.m.Backfilled++
				started = true
			}
		}
		if !started {
			remaining = append(remaining, e)
		}
	}
	s.queue = remaining
	return dec
}

// gateDenied runs the configured start gate over a chosen gang and records a
// denial.
func (s *Scheduler) gateDenied(id int, gang []int, now time.Duration) bool {
	if s.cfg.StartGate == nil {
		return false
	}
	if err := s.cfg.StartGate(id, gang, now); err != nil {
		s.m.GateDenied++
		return true
	}
	return false
}

// start moves a queued entry into the running set and builds its Start.
func (s *Scheduler) start(e *entry, gang []int, now time.Duration, backfilled bool, reason string) Start {
	wait := now - e.req.Submitted
	if wait < 0 {
		wait = 0
	}
	s.running[e.req.ID] = &runningJob{
		req:         e.req,
		devices:     gang,
		started:     now,
		expectedEnd: now + s.est(e.req),
	}
	s.m.Started++
	s.m.Waits = append(s.m.Waits, wait)
	return Start{ID: e.req.ID, Devices: gang, Backfilled: backfilled, Wait: wait, Reason: reason}
}

// preemptFor selects victims to unblock req: strictly-lower-priority
// running jobs, cheapest first (lowest priority, then most recently
// started), until their devices plus the free set cover the gang. Returns
// nil when no victim set suffices — partial eviction would waste work
// without unblocking the gang.
func (s *Scheduler) preemptFor(req Request, free []int, now time.Duration) []Preempt {
	var victims []*runningJob
	for _, r := range s.running {
		if r.req.Priority < req.Priority && !r.preempting {
			victims = append(victims, r)
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].req.Priority != victims[j].req.Priority {
			return victims[i].req.Priority < victims[j].req.Priority
		}
		if victims[i].started != victims[j].started {
			return victims[i].started > victims[j].started
		}
		return victims[i].req.ID > victims[j].req.ID
	})
	have := len(free)
	var chosen []*runningJob
	for _, v := range victims {
		if have >= req.GPUs {
			break
		}
		chosen = append(chosen, v)
		have += len(v.devices)
	}
	if have < req.GPUs {
		return nil
	}
	var out []Preempt
	for _, v := range chosen {
		v.preempting = true
		s.m.Preemptions++
		out = append(out, Preempt{
			ID:    v.req.ID,
			ForID: req.ID,
			Reason: fmt.Sprintf("preempted for job %d (priority %d > %d, waited %v)",
				req.ID, req.Priority, v.req.Priority, now-req.Submitted),
		})
	}
	return out
}

// subtract returns xs minus ys, preserving order.
func subtract(xs, ys []int) []int {
	drop := toSet(ys)
	var out []int
	for _, x := range xs {
		if !drop[x] {
			out = append(out, x)
		}
	}
	return out
}
