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
//     the active core.Policy scores lowest in the nvidia-smi survey win —
//     the same ranking core.Mapper.Allocate applies (resident processes
//     under PID, used memory under memory, SM utilization under
//     utilization).
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
	"container/heap"
	"fmt"
	"sort"
	"time"

	"gyan/internal/core"
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
	// policy's score decides alone (locality-blind).
	Prefer []int
}

// defaultEstRuntime stands in for requests with no estimate.
const defaultEstRuntime = 30 * time.Second

// scorer ranks a candidate device under the current nvidia-smi survey;
// lower scores are preferred.
type scorer func(minor int, u smi.Usage) float64

// policyScores holds each policy's Score as a scorer, made once, so picking
// a gang allocates no method value.
var policyScores = [...]scorer{
	core.PolicyPID:         core.PolicyPID.Score,
	core.PolicyMemory:      core.PolicyMemory.Score,
	core.PolicyUtilization: core.PolicyUtilization.Score,
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
	// Score units depend on the policy (processes under PID, MiB under
	// memory, percent under utilization); a bonus comfortably above any of
	// their ranges (e.g. 1e6) makes locality dominate, and a small one
	// (e.g. 0.5) only breaks ties.
	LocalityBonus float64
	// Policy ranks free devices for a gang (core.Policy.Score); it must be
	// one of core's three policies. The zero value is PID: fewest resident
	// processes first.
	Policy core.Policy
}

// entry is one queued job.
type entry struct {
	req Request
	cls *class
}

// classKey names a fair-share class: every queued job of one user at one
// priority.
type classKey struct {
	priority int
	user     string
}

// class holds one classKey's queued jobs in (Submitted, ID) order. Within a
// class the fair-share score is shared, so this is already the class's
// share of the scheduler's total order; Cycle only merges class heads.
type class struct {
	key classKey
	q   []*entry
	// pos and usage are the class's cursor and its user's GPU-seconds
	// during one Cycle's walk.
	pos   int
	usage float64
}

// before reports whether a precedes b within a class: submission time, then
// ID.
func before(a, b Request) bool {
	if a.Submitted != b.Submitted {
		return a.Submitted < b.Submitted
	}
	return a.ID < b.ID
}

// insert places e in (Submitted, ID) order. Arrivals nearly always carry the
// latest submission time, so this is nearly always an append.
func (c *class) insert(e *entry) {
	i := len(c.q)
	if i > 0 && before(e.req, c.q[i-1].req) {
		i = sort.Search(len(c.q), func(k int) bool { return before(e.req, c.q[k].req) })
	}
	c.q = append(c.q, nil)
	copy(c.q[i+1:], c.q[i:])
	c.q[i] = e
}

// index returns e's position in the class.
func (c *class) index(e *entry) int {
	return sort.Search(len(c.q), func(k int) bool { return !before(c.q[k].req, e.req) })
}

// removeAt drops the entry at position i, moving whichever side of it is
// shorter. Positions after i shift down by one either way.
func (c *class) removeAt(i int) {
	if i < len(c.q)-1-i {
		copy(c.q[1:i+1], c.q[:i])
		c.q[0] = nil
		c.q = c.q[1:]
		return
	}
	copy(c.q[i:], c.q[i+1:])
	c.q[len(c.q)-1] = nil
	c.q = c.q[:len(c.q)-1]
}

// heads is a min-heap of classes by their cursor entry in the scheduler's
// total order: priority class descending, the user's accumulated
// GPU-seconds ascending (lower is hungrier), submission time ascending, ID
// ascending. IDs are unique, so the order is total.
type heads []*class

func (h heads) Len() int      { return len(h) }
func (h heads) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h heads) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.key.priority != b.key.priority {
		return a.key.priority > b.key.priority
	}
	if a.usage != b.usage {
		return a.usage < b.usage
	}
	return before(a.q[a.pos].req, b.q[b.pos].req)
}
func (h *heads) Push(x any) { *h = append(*h, x.(*class)) }
func (h *heads) Pop() any {
	old := *h
	c := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return c
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
	cfg Config
	// classes holds the queue, one (Submitted, ID)-ordered list per
	// (priority, user); byID indexes every queued entry.
	classes map[classKey]*class
	byID    map[int]*entry
	// gangs counts queued requests per gang size, so a cycle can tell
	// without a walk whether any queued gang exceeds the cluster.
	gangs map[int]int
	// walk is Cycle's merge heap, kept between cycles for its array.
	walk    heads
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
		classes: make(map[classKey]*class),
		byID:    make(map[int]*entry),
		gangs:   make(map[int]int),
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
func (s *Scheduler) QueueDepth() int { return len(s.byID) }

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
	if _, dup := s.byID[req.ID]; dup {
		return fmt.Errorf("sched: job %d already queued", req.ID)
	}
	if req.Submitted == 0 {
		req.Submitted = now
	}
	key := classKey{priority: req.Priority, user: req.User}
	c := s.classes[key]
	if c == nil {
		c = &class{key: key}
		s.classes[key] = c
	}
	e := &entry{req: req, cls: c}
	c.insert(e)
	s.byID[req.ID] = e
	s.gangs[req.GPUs]++
	s.m.Submitted++
	return nil
}

// Remove drops a queued job (killed while waiting). Removing an unknown or
// already-running job is a no-op.
func (s *Scheduler) Remove(id int) {
	if e := s.byID[id]; e != nil {
		s.dequeue(e, e.cls.index(e))
	}
}

// dequeue drops e, found at position i of its class, from the queue.
func (s *Scheduler) dequeue(e *entry, i int) {
	c := e.cls
	c.removeAt(i)
	if len(c.q) == 0 {
		delete(s.classes, c.key)
	}
	delete(s.byID, e.req.ID)
	if s.gangs[e.req.GPUs]--; s.gangs[e.req.GPUs] == 0 {
		delete(s.gangs, e.req.GPUs)
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

// scorerFor wraps the policy's score with the request's locality
// preference: preferred devices' scores drop by LocalityBonus, so pickGang's
// (score, minor) ordering visits them first when the bonus outweighs the
// score.
func (s *Scheduler) scorerFor(req Request) scorer {
	base := policyScores[s.cfg.Policy]
	if s.cfg.LocalityBonus <= 0 || len(req.Prefer) == 0 {
		return base
	}
	prefer := toSet(req.Prefer)
	return func(minor int, u smi.Usage) float64 {
		score := base(minor, u)
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
//
// Cycle walks the queue in priority/fair-share order by merging the class
// heads and stops as soon as no device is free: every start, head-of-line
// or backfill, takes its gang from the free set, so nothing later in the
// walk could start.
func (s *Scheduler) Cycle(now time.Duration, survey smi.Usage) Decision {
	var dec Decision
	total := len(survey.AllGPUs)
	free := s.freeDevices(survey)

	// Reject impossible gangs first so they never block the queue.
	if s.oversized(total) {
		for s.beginWalk(); len(s.walk) > 0; s.step() {
			c := s.walk[0]
			e := c.q[c.pos]
			if e.req.GPUs <= total {
				c.pos++
				continue
			}
			dec.Rejects = append(dec.Rejects, Reject{
				ID: e.req.ID,
				Reason: fmt.Sprintf("gang of %d exceeds the %d-GPU cluster",
					e.req.GPUs, total),
			})
			s.m.Rejected++
			s.dequeue(e, c.pos)
		}
	}

	var res *reservation
	for s.beginWalk(); len(s.walk) > 0 && len(free) > 0; s.step() {
		c := s.walk[0]
		e := c.q[c.pos]
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
		if started {
			s.dequeue(e, c.pos)
		} else {
			c.pos++
		}
	}
	return dec
}

// oversized reports whether some queued gang is larger than total devices.
func (s *Scheduler) oversized(total int) bool {
	for n := range s.gangs {
		if n > total {
			return true
		}
	}
	return false
}

// beginWalk rewinds every class to its head and heaps the classes in the
// scheduler's total order.
func (s *Scheduler) beginWalk() {
	s.walk = s.walk[:0]
	for _, c := range s.classes {
		c.pos = 0
		c.usage = s.usage[c.key.user]
		s.walk = append(s.walk, c)
	}
	heap.Init(&s.walk)
}

// step re-heaps the top class after its cursor entry was skipped (cursor
// advanced) or dequeued (cursor now at the next entry).
func (s *Scheduler) step() {
	if c := s.walk[0]; c.pos >= len(c.q) {
		heap.Pop(&s.walk)
	} else {
		heap.Fix(&s.walk, 0)
	}
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
