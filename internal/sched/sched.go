// Package sched is a GPU-aware batch scheduler layered over GYAN's one-shot
// mapping decision. Where core.Mapper answers "which devices would suit this
// job right now?", sched owns the continuous question a production Galaxy
// faces under sustained load: which of the queued jobs start next, on which
// exact device set, and what happens to everyone else in the meantime.
//
// The scheduler provides three mechanisms on top of the mapper:
//
//   - Priority queues with fair sharing: queued jobs order by priority class
//     first, then by each user's accumulated GPU-seconds, so a user who has
//     consumed less moves ahead of a heavy submitter at equal priority.
//
//   - Gang allocation: multi-GPU requests are all-or-nothing. A job asking
//     for two devices either gets two exclusive devices or stays queued; it
//     is never started on a partial set. Among free candidates the devices
//     with the fewest resident processes in the nvidia-smi survey win —
//     the signal behind core.Mapper.Allocate's "Process ID Approach".
//
//   - Backfill with a head-of-line reservation: when the highest-priority
//     job cannot start, it receives a reservation for the earliest instant
//     enough devices free up (computed from running jobs' runtime
//     estimates). Smaller jobs may slide past it only if they provably do
//     not delay that reservation — either they finish before it matures or
//     they use surplus devices the reservation does not need.
//
// A started job runs to its end: the scheduler never evicts one to make room.
//
// The scheduler is deliberately passive: it never starts or stops anything
// itself. Cycle returns a Decision (starts, rejections) and the caller —
// galaxy.Galaxy driven by the sim engine — executes it, then reports
// completions back through Release. This keeps the scheduler a pure
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
	// limit). Zero falls back to 30 s. The estimate feeds backfill
	// reservations only; jobs are never killed for overrunning it.
	EstRuntime time.Duration
	// Submitted is the virtual time the job entered the system, used for
	// FIFO tie-breaks.
	Submitted time.Duration
	// Prefer lists device minor IDs already holding the job's input data
	// (a workflow step's upstream outputs). With Config.LocalityBonus set,
	// gang allocation discounts these devices' scores so placement lands
	// where the data lives; without the bonus the hint is ignored and the
	// process count decides alone (locality-blind).
	Prefer []int
}

// defaultEstRuntime stands in for requests with no estimate.
const defaultEstRuntime = 30 * time.Second

// scorer ranks a candidate device under the current nvidia-smi survey;
// lower scores are preferred.
type scorer func(minor int, u smi.Usage) float64

// processCount prefers devices with the fewest resident processes — the
// survey signal behind the paper's "Process ID Approach".
func processCount(minor int, u smi.Usage) float64 {
	return float64(len(u.ProcsByGPU[minor]))
}

// Config tunes a Scheduler.
type Config struct {
	// Backfill enables sliding small jobs past a blocked head-of-line
	// job under its reservation. Without it the queue is strict
	// priority/fair-share order.
	Backfill bool
	// LocalityBonus is subtracted from a device's score when the request's
	// Prefer list names it, pulling workflow steps onto the devices that
	// already hold their inputs. Zero disables locality-aware placement.
	// Scores are process counts, so a bonus comfortably above their range
	// (e.g. 1e6) makes locality dominate; a small bonus only breaks
	// near-ties.
	LocalityBonus float64
}

// entry is one queued job.
type entry struct {
	req Request
}

// runningJob is one job the scheduler has started and not yet released.
type runningJob struct {
	req         Request
	devices     []int
	started     time.Duration
	expectedEnd time.Duration
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

// Reject reports a request that can never be satisfied (gang larger than
// the cluster). The caller should fail the job.
type Reject struct {
	ID     int
	Reason string
}

// Decision is the outcome of one scheduling cycle, in execution order.
type Decision struct {
	Starts  []Start
	Rejects []Reject
}

// Empty reports whether the cycle decided nothing.
func (d Decision) Empty() bool {
	return len(d.Starts) == 0 && len(d.Rejects) == 0
}

// Scheduler holds the queue and the running set. It is not safe for
// concurrent use; the caller serializes access (galaxy holds its own lock).
type Scheduler struct {
	cfg     Config
	queue   []*entry
	running map[int]*runningJob
	// usage accumulates each user's GPU-seconds for fair sharing.
	usage map[string]float64
	// startGate, when non-nil, is consulted with the chosen device gang
	// before each start is committed — the fault-injection seam for gang
	// starts that die during device allocation (cgroup setup, CUDA context
	// creation). A non-nil error vetoes the start: the job stays queued,
	// its devices stay free this cycle, and the gate call is counted in
	// Metrics.GateDenied. The caller owns rescheduling a later cycle (and
	// bounding repeated denials), otherwise a permanently vetoed job waits
	// forever.
	startGate func(id int, devices []int, now time.Duration) error
	m         Metrics
}

// New returns a scheduler with the given configuration.
func New(cfg Config) *Scheduler {
	return &Scheduler{
		cfg:     cfg,
		running: make(map[int]*runningJob),
		usage:   make(map[string]float64),
	}
}

// SetStartGate installs or replaces the start gate. The integration layer
// uses it to arm fault injection after construction.
func (s *Scheduler) SetStartGate(gate func(id int, devices []int, now time.Duration) error) {
	s.startGate = gate
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
	s.queue = append(s.queue, &entry{req: req})
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

// Release reports that a started job finished (completed, failed or was
// killed) at virtual time now. Its devices become free at the next Cycle and
// its runtime is charged to the user's fair share.
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

// order sorts the queue by effective priority: priority class descending,
// accumulated GPU-seconds ascending (lower is hungrier), submission time
// ascending, ID ascending.
func (s *Scheduler) order() {
	sort.SliceStable(s.queue, func(i, j int) bool {
		a, b := s.queue[i].req, s.queue[j].req
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
		as, bs := s.usage[a.User], s.usage[b.User]
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
	return defaultEstRuntime
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
func pickGang(candidates []int, n int, score scorer, u smi.Usage) []int {
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

// scorerFor wraps the process count with the request's locality preference:
// preferred devices' scores drop by LocalityBonus, so pickGang's (score,
// minor) ordering visits them first when the bonus outweighs the count.
func (s *Scheduler) scorerFor(req Request) scorer {
	if s.cfg.LocalityBonus <= 0 || len(req.Prefer) == 0 {
		return processCount
	}
	prefer := toSet(req.Prefer)
	return func(minor int, u smi.Usage) float64 {
		score := processCount(minor, u)
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
// must be launched on exactly its device gang, each Reject must fail the
// job. Cycle itself mutates only the scheduler's bookkeeping.
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
			// Blocked head: take a reservation that backfill must
			// honor.
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

// gateDenied runs the start gate over a chosen gang and records a denial.
func (s *Scheduler) gateDenied(id int, gang []int, now time.Duration) bool {
	if s.startGate == nil {
		return false
	}
	if err := s.startGate(id, gang, now); err != nil {
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
