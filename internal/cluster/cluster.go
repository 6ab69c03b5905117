package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"gyan/internal/faults"
	"gyan/internal/galaxy"
	"gyan/internal/journal"
	"gyan/internal/obs"
	"gyan/internal/sched"
	"gyan/internal/smi"
	"gyan/internal/transport"
)

// KeyParam is the tool-parameter name the cluster threads its global job key
// through. The key rides the journaled submit record's Params, which is what
// lets the rebalancer and the chaos audits correlate a job across handlers
// even though every handler issues its own local job IDs.
const KeyParam = "cluster_key"

// DefaultStripes matches the galaxy jobTable's stripe count: the unit of
// ownership the ring partitions.
const DefaultStripes = 32

// Config shapes a simulated cluster.
type Config struct {
	// Handlers is the member count N (>= 1).
	Handlers int
	// BaseID prefixes handler IDs: BaseID+"0" .. BaseID+strconv(N-1).
	// Default "h".
	BaseID string
	// Members, when set, is the full cluster membership by ID and overrides
	// Handlers/BaseID. With a networked Bus each process hosts a subset of
	// the membership (Local) and the rest are remote peers reached over the
	// wire.
	Members []string
	// Local names the members hosted in this process; default all of
	// Members. Exactly one local member is required when Bus is set (a
	// tcpbus endpoint serves one member).
	Local []string
	// Bus, when set, replaces the built-in simulated bus — the tcpbus path.
	// The caller owns its lifecycle.
	Bus transport.Transport
	// WallClock, when set, switches Step from lockstep ticking to wall-time
	// pacing: each Step advances the virtual clock to WallClock() instead of
	// now+Tick. Lease TTLs, steal backoffs and AE rounds then key off real
	// elapsed time (scaled however the caller's clock maps it).
	WallClock func() time.Duration
	// Incarnation is this process's member-catalog incarnation (tcp mode);
	// values above 1 mean a restart-rejoin: the local journal is replayed
	// only to advance the job-ID allocator (survivors own the old jobs), the
	// ring is reconstructed through the same remove+add the survivors
	// applied, and the member boots warming — refusing submissions and
	// steals until every live peer has acknowledged the new incarnation.
	Incarnation uint64
	// KeyOffset/KeyStride carve the global key space between processes
	// (process i of P uses offset i, stride P) so concurrently drawn keys
	// never collide. Defaults 0 and 1.
	KeyOffset uint64
	KeyStride uint64
	// Dir is the journal root; handler i journals to Dir/<id>. Empty uses
	// a temp directory (removed by Close).
	Dir string
	// Stripes is the ownership partition count; default DefaultStripes.
	Stripes int
	// Tick is the lockstep quantum: engines run independently inside a
	// tick, and cluster-level work (routing visibility, stealing, kills,
	// rebalancing, scrapes) happens only at tick boundaries, in member
	// order — that is what makes an N-handler run deterministic. Default
	// 500ms of virtual time.
	Tick time.Duration
	// StealThreshold is the minimum backlog a victim must carry before an
	// idle peer steals from it; default 2 (a trivially short queue is
	// cheaper to drain locally than to move).
	StealThreshold int
	// LeaseTTL configures each handler's journal lease heartbeats.
	LeaseTTL time.Duration
	// Seed fixes the transport and protocol randomness (message latency
	// jitter, retry backoff jitter, fault draws). Default 1.
	Seed uint64
	// BusDelay is the one-way message latency on the simulated bus; zero
	// uses the transport default (5ms — well under a tick, so every
	// protocol phase lands on the next tick boundary).
	BusDelay time.Duration
	// MsgFaults, when set, injects message-level faults (drop, delay,
	// duplicate, reorder, one-way partitions) into the bus.
	MsgFaults *faults.MsgPlan
	// MemberTTL is how long a member's lease lasts from each renewal's
	// send time; a peer whose lease lapses is declared dead. Default
	// 6 ticks.
	MemberTTL time.Duration
	// RenewEvery is the lease-renewal broadcast period. Default one tick.
	RenewEvery time.Duration
	// AntiEntropyEvery is the anti-entropy sweep period (each round sends
	// one round-robin peer a trail digest). Default 2 ticks.
	AntiEntropyEvery time.Duration
	// StealBackoff paces two-phase steal retries: the prepare is re-sent
	// on this schedule until the attempt budget is spent, then the victim
	// switches to the abort exchange. Default 4 attempts, base 3 ticks,
	// cap 12 ticks, 20% jitter.
	StealBackoff faults.Backoff
	// Journal tunes each handler's write-ahead log. DurableSubmits is
	// forced on for adopt/submit durability unless DisableDurableSubmits.
	Journal journal.Options
	// DisableDurableSubmits trades the acked-implies-durable guarantee for
	// speed (throughput experiments that never crash handlers).
	DisableDurableSubmits bool
	// Sched configures each handler's batch scheduler.
	Sched sched.Config
	// Tools registers tool bindings on each handler's Galaxy; default
	// RegisterDefaultTools.
	Tools func(*galaxy.Galaxy) error
	// Registry receives the cluster's handler-labeled metrics; default a
	// fresh registry (see Registry()).
	Registry *obs.Registry
}

// SubmitOptions refine a routed submission.
type SubmitOptions struct {
	// Delay stages the job's start this far into the virtual future.
	Delay time.Duration
	// User, Priority, GPUs, EstRuntime and Runtime pass through to the
	// owning handler's galaxy.SubmitOptions.
	User       string
	Priority   int
	GPUs       int
	EstRuntime time.Duration
	Runtime    string
	// Key pins the cluster key instead of drawing the next sequential one
	// (tests use it to aim jobs at a chosen partition).
	Key *uint64
}

// JobRef names a routed job: its global key plus its current handler and
// handler-local ID (both of which change if the job is stolen or
// rebalanced; Lookup returns the current binding).
type JobRef struct {
	Key     uint64 `json:"key"`
	Handler string `json:"handler"`
	ID      int    `json:"id"`
}

// handler is one locally hosted cluster member. Remote members (partial
// residency over a networked bus) have no handler — they exist only as IDs
// in c.order, lease entries in peers' protocol state, and journal
// directories on the shared filesystem.
type handler struct {
	id    string
	g     *galaxy.Galaxy
	jr    *journal.Journal
	dir   string
	alive bool
	// inc is this member's catalog incarnation (1 in the simulator).
	inc uint64
	// proto is this member's protocol state machine (protocol.go).
	proto *protoState
	// routed/stolenIn/stolenOut/rebalancedIn count jobs for Status.
	routed, stolenIn, stolenOut, rebalancedIn uint64
}

// tracked is the coordinator's view of one routed job.
type tracked struct {
	handler string
	job     *galaxy.Job
}

// Cluster is N GYAN handlers simulated in one process. Each member is a full
// galaxy.Galaxy — own discrete-event engine, own GPU node, own batch
// scheduler, own write-ahead journal — and the Cluster object plays the
// coordinator: it routes submissions by consistent-hashed key, advances the
// engines in lockstep ticks, steals queued work for idle GPUs, and
// rebalances a dead member's partition across the survivors.
//
// Submit, KillJob, Survey, Status and the obs registry are safe to call
// concurrently with Run/Step from other goroutines (the -race hammer does
// exactly that); Step itself must be driven from a single goroutine.
type Cluster struct {
	cfg      Config
	order    []string
	handlers map[string]*handler
	datasets map[string]any

	mu      sync.Mutex
	ring    *Ring
	now     time.Duration
	nextKey uint64
	assign  map[uint64]string
	jobs    map[uint64]*tracked
	steals  uint64
	rejoins uint64
	tmpDir  string
	dirRoot string

	// bus is the message transport every protocol exchange rides — the
	// deterministic simulated bus by default, a caller-supplied networked
	// one (tcpbus) for real deployments; dead archives the post-mortem view
	// of each declared member (built once by the first declarer, consulted
	// by every claimer).
	bus  transport.Transport
	dead map[string]*deadMemberInfo

	memberTTL    time.Duration
	renewEvery   time.Duration
	aeEvery      time.Duration
	stealBackoff faults.Backoff

	reg          *obs.Registry
	routedVec    obs.CounterVec
	stealsVec    obs.CounterVec
	rebalVec     obs.CounterVec
	prepVec      obs.CounterVec
	acceptVec    obs.CounterVec
	retireVec    obs.CounterVec
	abortVec     obs.CounterVec
	retryVec     obs.CounterVec
	renewVec     obs.CounterVec
	expiryVec    obs.CounterVec
	claimVec     obs.CounterVec
	aeRoundVec   obs.CounterVec
	aeRepairVec  obs.CounterVec
	upVec        obs.GaugeVec
	depthVec     obs.GaugeVec
	runningVec   obs.GaugeVec
	freeVec      obs.GaugeVec
	stripesVec   obs.GaugeVec
	transportVec obs.GaugeVec
	peerVec      obs.GaugeVec
	rejoinVec    obs.CounterVec
	rebalances   uint64
	lastSurveys  map[string]smi.Usage
}

// New builds and boots a cluster. Every handler starts alive with an empty
// journal in its own directory.
func New(cfg Config) (*Cluster, error) {
	if cfg.BaseID == "" {
		cfg.BaseID = "h"
	}
	if len(cfg.Members) == 0 {
		if cfg.Handlers < 1 {
			return nil, fmt.Errorf("cluster: need at least 1 handler, got %d", cfg.Handlers)
		}
		for i := 0; i < cfg.Handlers; i++ {
			cfg.Members = append(cfg.Members, cfg.BaseID+strconv.Itoa(i))
		}
	}
	if len(cfg.Local) == 0 {
		cfg.Local = append([]string(nil), cfg.Members...)
	}
	local := make(map[string]bool, len(cfg.Local))
	for _, id := range cfg.Local {
		found := false
		for _, m := range cfg.Members {
			if m == id {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cluster: local member %q not in membership %v", id, cfg.Members)
		}
		local[id] = true
	}
	if cfg.Bus != nil && len(cfg.Local) != 1 {
		return nil, fmt.Errorf("cluster: a networked bus serves exactly one local member, got %d", len(cfg.Local))
	}
	if cfg.KeyStride == 0 {
		cfg.KeyStride = 1
	}
	if cfg.Incarnation == 0 {
		cfg.Incarnation = 1
	}
	if cfg.Stripes <= 0 {
		cfg.Stripes = DefaultStripes
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 500 * time.Millisecond
	}
	if cfg.StealThreshold <= 0 {
		cfg.StealThreshold = 2
	}
	if cfg.Tools == nil {
		cfg.Tools = (*galaxy.Galaxy).RegisterDefaultTools
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MemberTTL <= 0 {
		cfg.MemberTTL = 6 * cfg.Tick
	}
	if cfg.RenewEvery <= 0 {
		cfg.RenewEvery = cfg.Tick
	}
	if cfg.AntiEntropyEvery <= 0 {
		cfg.AntiEntropyEvery = 2 * cfg.Tick
	}
	if cfg.StealBackoff == (faults.Backoff{}) {
		cfg.StealBackoff = faults.Backoff{
			MaxAttempts: 4, Base: 3 * cfg.Tick, Max: 12 * cfg.Tick, Jitter: 0.2,
		}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Cluster{
		cfg:          cfg,
		handlers:     make(map[string]*handler, len(cfg.Local)),
		datasets:     make(map[string]any),
		assign:       make(map[uint64]string),
		jobs:         make(map[uint64]*tracked),
		lastSurveys:  make(map[string]smi.Usage),
		dead:         make(map[string]*deadMemberInfo),
		nextKey:      cfg.KeyOffset,
		memberTTL:    cfg.MemberTTL,
		renewEvery:   cfg.RenewEvery,
		aeEvery:      cfg.AntiEntropyEvery,
		stealBackoff: cfg.StealBackoff,
		reg:          reg,
		bus:          cfg.Bus,
	}
	if c.bus == nil {
		c.bus = transport.New(transport.Options{
			Seed: cfg.Seed, BaseDelay: cfg.BusDelay, Plan: cfg.MsgFaults,
		})
	}
	c.routedVec = reg.CounterVec("gyan_cluster_jobs_routed_total",
		"Jobs routed to each handler by the partition ring.", "handler")
	c.stealsVec = reg.CounterVec("gyan_cluster_steals_total",
		"Jobs moved by work stealing, by thief and victim.", "thief", "victim")
	c.rebalVec = reg.CounterVec("gyan_cluster_jobs_rebalanced_total",
		"Jobs re-homed from a dead handler to a survivor.", "from", "to")
	c.upVec = reg.GaugeVec("gyan_cluster_handler_up",
		"1 while the handler is alive, 0 after a kill.", "handler")
	c.depthVec = reg.GaugeVec("gyan_cluster_queue_depth",
		"Scheduler backlog per handler at last scrape.", "handler")
	c.runningVec = reg.GaugeVec("gyan_cluster_running",
		"Granted device gangs per handler at last scrape.", "handler")
	c.freeVec = reg.GaugeVec("gyan_cluster_free_gpus",
		"Process-free GPUs per handler at last scrape.", "handler")
	c.stripesVec = reg.GaugeVec("gyan_cluster_partition_stripes",
		"Stripes owned per handler.", "handler")
	c.prepVec = reg.CounterVec("gyan_cluster_steal_prepares_total",
		"Two-phase steal prepares sent, by victim and thief.", "victim", "thief")
	c.acceptVec = reg.CounterVec("gyan_cluster_steal_accepts_total",
		"Two-phase steal accepts journaled, by thief and victim.", "thief", "victim")
	c.retireVec = reg.CounterVec("gyan_cluster_steal_retires_total",
		"Two-phase steals retired (final), by victim and thief.", "victim", "thief")
	c.abortVec = reg.CounterVec("gyan_cluster_steal_aborts_total",
		"Two-phase steals aborted and requeued, by victim and thief.", "victim", "thief")
	c.retryVec = reg.CounterVec("gyan_cluster_steal_retries_total",
		"Protocol message re-sends driven by timeout backoff.", "victim")
	c.renewVec = reg.CounterVec("gyan_cluster_lease_renewals_total",
		"Lease-renewal broadcasts sent.", "handler")
	c.expiryVec = reg.CounterVec("gyan_cluster_lease_expiries_total",
		"Peer leases declared expired, by detector and dead member.", "detector", "dead")
	c.claimVec = reg.CounterVec("gyan_cluster_claims_total",
		"Journaled rebalance-claims, by claimer and dead member.", "claimer", "dead")
	c.aeRoundVec = reg.CounterVec("gyan_cluster_antientropy_rounds_total",
		"Anti-entropy digests sent.", "handler")
	c.aeRepairVec = reg.CounterVec("gyan_cluster_antientropy_repairs_total",
		"Divergences repaired by the anti-entropy sweep, by kind.", "handler", "kind")
	c.transportVec = reg.GaugeVec("gyan_cluster_transport_events",
		"Cumulative transport bus events at last scrape.", "event")
	c.peerVec = reg.GaugeVec("gyan_cluster_peer_transport",
		"Per-peer connection-level transport counters (networked bus only).", "peer", "event")
	c.rejoinVec = reg.CounterVec("gyan_cluster_rejoins_total",
		"Members welcomed back into the ring under a new incarnation.", "member")

	dir := cfg.Dir
	if dir == "" {
		d, err := os.MkdirTemp("", "gyan-cluster-*")
		if err != nil {
			return nil, err
		}
		dir = d
		c.tmpDir = d
	}
	jopts := cfg.Journal
	if !cfg.DisableDurableSubmits {
		jopts.DurableSubmits = true
	}
	c.dirRoot = dir
	for _, id := range cfg.Members {
		c.order = append(c.order, id)
		if !local[id] {
			continue // remote member: an ID and a lease entry, no engine here
		}
		hdir := filepath.Join(dir, id)
		// A rejoining incarnation reopens its old journal directory. Its
		// previous life's non-terminal work belongs to the survivors who
		// claimed it, so nothing is requeued from the replay — but the
		// job-ID allocator must advance past every ID the directory has ever
		// issued, or the new life's journal trails would collide with the
		// old ones and corrupt the exactly-once audit fold.
		maxJob := 0
		if cfg.Incarnation > 1 {
			if recs, _, err := journal.ReplayAll(hdir); err == nil {
				for _, rec := range recs {
					if rec.Job > maxJob {
						maxJob = rec.Job
					}
				}
			}
		}
		jr, err := journal.Open(hdir, jopts)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: open journal for %s: %w", id, err)
		}
		gopts := []galaxy.Option{
			galaxy.WithScheduler(sched.New(cfg.Sched)),
			galaxy.WithJournal(jr, id),
		}
		if maxJob > 0 {
			gopts = append(gopts, galaxy.WithJobIDBase(maxJob))
		}
		if cfg.LeaseTTL > 0 {
			gopts = append(gopts, galaxy.WithLeaseTTL(cfg.LeaseTTL))
		}
		g := galaxy.New(nil, gopts...)
		if err := cfg.Tools(g); err != nil {
			c.Close()
			return nil, err
		}
		h := &handler{id: id, g: g, jr: jr, dir: hdir, alive: true, inc: cfg.Incarnation}
		c.handlers[id] = h
		c.upVec.With(id).Set(1)
	}
	ring, err := NewRing(cfg.Stripes, cfg.Members)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.ring = ring
	if cfg.Incarnation > 1 {
		// Reconstruct the ring surgery the survivors performed when this
		// member's previous incarnation died: remove then re-add. Ring ops
		// are history-dependent, so replaying the same op sequence is what
		// keeps every member's stripe table convergent (single-death
		// histories; see DESIGN §16).
		for _, id := range cfg.Local {
			c.ring.Remove(id)
			c.ring.Add(id)
		}
	}
	// Protocol state last: every member seeds its own RNG stream and boots
	// with a full lease for each peer (the detector's grace period).
	for i, id := range c.order {
		h := c.handlers[id]
		if h == nil {
			continue
		}
		h.proto = newProtoState(
			cfg.Seed^(0x9e3779b97f4a7c15*uint64(i+1)), cfg.Members, id, cfg.MemberTTL)
		if cfg.Incarnation > 1 && cfg.Bus != nil {
			// Rejoin warming: no submissions and no thieving until every
			// live peer has acknowledged the new incarnation — the window in
			// which survivors replay this member's old journal must close
			// before new trails can appear in it.
			h.proto.warming = true
		}
	}
	reg.OnScrape(c.scrape)
	return c, nil
}

// journalDirFor maps any member — local or remote — to its journal
// directory under the shared root; the dead-member replay path uses it when
// the dead peer has no local handler.
func (c *Cluster) journalDirFor(id string) string {
	if h := c.handlers[id]; h != nil {
		return h.dir
	}
	return filepath.Join(c.dirRoot, id)
}

// Close crashes every live journal (releasing flocks) and removes the temp
// journal root if New created one.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, id := range c.order {
		h := c.handlers[id]
		if h == nil || !h.alive {
			continue
		}
		if err := h.jr.Close(); err != nil && first == nil {
			first = err
		}
	}
	if c.tmpDir != "" {
		if err := os.RemoveAll(c.tmpDir); err != nil && first == nil {
			first = err
		}
		c.tmpDir = ""
	}
	return first
}

// Registry returns the cluster's handler-labeled metrics registry.
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// Galaxy returns a member's Galaxy (tests and the API server reach through
// for per-handler views); nil for an unknown ID.
func (c *Cluster) Galaxy(id string) *galaxy.Galaxy {
	h := c.handlers[id]
	if h == nil {
		return nil
	}
	return h.g
}

// JournalDirs maps each handler ID to its journal directory (the audit
// surface: see AuditJournals).
func (c *Cluster) JournalDirs() map[string]string {
	out := make(map[string]string, len(c.order))
	for _, id := range c.order {
		out[id] = c.journalDirFor(id)
	}
	return out
}

// Handlers returns the member IDs in boot order (dead ones included).
func (c *Cluster) Handlers() []string { return append([]string(nil), c.order...) }

// RegisterDataset names a payload for routed submissions. Rebalancing
// re-resolves datasets by name from this registry (payloads never touch a
// journal), so jobs must be submitted with a registered name.
func (c *Cluster) RegisterDataset(name string, payload any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.datasets[name] = payload
}

// Now returns the cluster's lockstep virtual time.
func (c *Cluster) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Submit routes one tool execution: the job draws a global key, the key's
// stripe picks the owning handler via the ring, and the job lands in that
// handler's galaxy with the key threaded through its journaled params.
func (c *Cluster) Submit(tool string, params map[string]string, datasetName string, opts SubmitOptions) (JobRef, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, ok := c.datasets[datasetName]
	if !ok {
		return JobRef{}, fmt.Errorf("cluster: unknown dataset %q", datasetName)
	}
	var key uint64
	if opts.Key != nil {
		key = *opts.Key
		if _, dup := c.assign[key]; dup {
			return JobRef{}, fmt.Errorf("cluster: key %d already in use", key)
		}
	} else {
		// Draw the next key on this process's stride. Keys whose stripe the
		// ring assigns to a member hosted elsewhere are burned and the draw
		// advances: a burned key never reaches any journal, so the audit
		// never sees it. A full pass over the key space without hitting a
		// locally hosted stripe means this process hosts none.
		key = c.nextKey
		for tries := 0; c.handlers[c.ring.OwnerOfKey(key)] == nil; tries++ {
			if tries >= 4*c.cfg.Stripes {
				return JobRef{}, fmt.Errorf("cluster: no locally hosted stripe reachable from key %d", c.nextKey)
			}
			key += c.cfg.KeyStride
		}
	}
	owner := c.ring.OwnerOfKey(key)
	h := c.handlers[owner]
	if h == nil {
		// A pinned key aimed at a remote member's stripe: this process
		// cannot journal it. The caller should submit it on the owning
		// process (or let the stride draw route around it).
		return JobRef{}, fmt.Errorf("cluster: ring owner %q for key %d is not hosted in this process", owner, key)
	}
	if !h.alive {
		// The key is NOT consumed: a submission aimed at a dead member's
		// stripe mid-failover can be retried verbatim once the survivors'
		// rebalance-claims land.
		return JobRef{}, fmt.Errorf("cluster: ring owner %q for key %d is not alive", owner, key)
	}
	if h.proto != nil && h.proto.warming {
		return JobRef{}, fmt.Errorf("cluster: member %q is warming up after rejoin; retry", owner)
	}
	if opts.Key != nil {
		if key >= c.nextKey {
			c.nextKey = key + c.cfg.KeyStride
		}
	} else {
		c.nextKey = key + c.cfg.KeyStride
	}
	p := make(map[string]string, len(params)+1)
	for k, v := range params {
		p[k] = v
	}
	p[KeyParam] = strconv.FormatUint(key, 10)
	job, err := h.g.Submit(tool, p, ds, galaxy.SubmitOptions{
		Delay: opts.Delay, Runtime: opts.Runtime, User: opts.User,
		Priority: opts.Priority, GPUs: opts.GPUs, EstRuntime: opts.EstRuntime,
		DatasetName: datasetName,
	})
	if err != nil {
		return JobRef{}, err
	}
	c.assign[key] = owner
	c.jobs[key] = &tracked{handler: owner, job: job}
	h.routed++
	c.routedVec.With(owner).Inc()
	return JobRef{Key: key, Handler: owner, ID: job.ID}, nil
}

// Lookup returns the current binding of a key: which handler owns it and a
// snapshot pointer to its live job there.
func (c *Cluster) Lookup(key uint64) (JobRef, *galaxy.Job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tr := c.jobs[key]
	if tr == nil {
		return JobRef{}, nil, false
	}
	return JobRef{Key: key, Handler: tr.handler, ID: tr.job.ID}, tr.job, true
}

// Keys returns every routed cluster key in ascending order.
func (c *Cluster) Keys() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, 0, len(c.jobs))
	for k := range c.jobs {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KillJob cancels a routed job wherever it currently lives (a no-op once
// terminal; a stolen job's stale binding is refreshed first).
func (c *Cluster) KillJob(key uint64) bool {
	c.mu.Lock()
	tr := c.jobs[key]
	if tr == nil {
		c.mu.Unlock()
		return false
	}
	h := c.handlers[tr.handler]
	job := tr.job
	c.mu.Unlock()
	if h == nil || !h.alive {
		return false
	}
	h.g.Kill(job)
	return true
}

// Step advances the cluster by one lockstep tick: every live engine drains
// its events up to the tick boundary, clocks are re-aligned, then every
// member runs one protocol pass (message delivery, failure detection, lease
// renewal, steal decisions, retries, anti-entropy). Returns whether any
// live handler still has pending events or backlog, or any protocol
// exchange is still in flight (i.e. whether another tick could make
// progress).
func (c *Cluster) Step() bool {
	c.mu.Lock()
	target := c.now + c.cfg.Tick
	if c.cfg.WallClock != nil {
		// Wall-clock pacing: virtual time tracks the caller's clock instead
		// of advancing a fixed quantum per Step. The clock is monotonic but
		// never rewinds the cluster.
		if w := c.cfg.WallClock(); w > c.now {
			target = w
		} else {
			target = c.now
		}
	}
	live := c.liveLocked()
	c.mu.Unlock()
	for _, h := range live {
		h.g.Engine.RunUntil(target)
		h.g.Engine.Clock().AdvanceTo(target)
	}
	c.mu.Lock()
	c.now = target
	c.mu.Unlock()
	c.protocolPass(target)
	busy := false
	for _, h := range live {
		if h.alive && (h.g.Engine.Pending() > 0 || h.g.QueuedBacklog() > 0) {
			busy = true
			break
		}
	}
	if !busy {
		c.mu.Lock()
		busy = c.protoBusyLocked()
		c.mu.Unlock()
	}
	return busy
}

// protoBusyLocked reports whether any member still has an unresolved
// two-phase transfer (victim out-table, thief unretired set, or a parked
// orphaned prepare awaiting an anti-entropy verdict). Lease renewals
// perpetually in flight on the bus deliberately do NOT count as busy —
// they carry no work.
func (c *Cluster) protoBusyLocked() bool {
	for _, id := range c.order {
		h := c.handlers[id]
		if h == nil || !h.alive {
			continue
		}
		m := h.proto
		if len(m.out) > 0 || len(m.unretiredIn) > 0 || len(m.pendingDead) > 0 {
			return true
		}
	}
	return false
}

// Run drives ticks until the cluster drains or virtual time passes horizon,
// and returns the final virtual time.
func (c *Cluster) Run(horizon time.Duration) time.Duration {
	for c.Step() {
		if c.Now() >= horizon {
			break
		}
	}
	return c.Now()
}

func (c *Cluster) liveLocked() []*handler {
	out := make([]*handler, 0, len(c.order))
	for _, id := range c.order {
		if h := c.handlers[id]; h != nil && h.alive {
			out = append(out, h)
		}
	}
	return out
}

// keyOfParams extracts the cluster key a routed submission carries.
func keyOfParams(params map[string]string) (uint64, bool) {
	s, ok := params[KeyParam]
	if !ok {
		return 0, false
	}
	key, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return key, true
}

// KillHandler kills a member the way kill -9 does: its journal buffer is
// dropped on the floor (optionally with torn garbage bytes appended, the
// mid-write artifact), its flock is released, its undelivered bus messages
// vanish, and its engine never runs again. That is ALL it does — no ring
// surgery, no journal replay, no re-homing. The survivors notice the death
// themselves when the member's lease lapses (or a peer's rebalance-claim
// arrives first), claim its stripes through journaled claim records, and
// requeue its non-terminal work — see declareDeadLocked. Between the kill
// and detection, submissions routed to the dead member's stripes fail and
// the caller retries, exactly as against a real crashed node.
func (c *Cluster) KillHandler(id string, torn []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.handlers[id]
	if h == nil {
		return fmt.Errorf("cluster: unknown handler %q", id)
	}
	if !h.alive {
		return fmt.Errorf("cluster: handler %q is already dead", id)
	}
	if len(c.liveLocked()) < 2 {
		return errors.New("cluster: refusing to kill the last live handler")
	}
	h.alive = false
	c.upVec.With(id).Set(0)
	if err := h.jr.CrashTorn(torn); err != nil {
		return err
	}
	c.bus.Kill(id)
	return nil
}

// DeadSeenBy reports which peers `member` has declared dead (lease lapsed
// or learned via a rebalance-claim) — the test window into the failure
// detector.
func (c *Cluster) DeadSeenBy(member string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.handlers[member]
	if h == nil || h.proto == nil {
		return nil
	}
	out := make([]string, 0, len(h.proto.deadSeen))
	for d := range h.proto.deadSeen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// StealPhases reports every in-flight two-phase transfer across the
// cluster, keyed "victim/xfer": "prepared" or "aborting" on the victim
// side, "accepted" for thief-side transfers whose retire has not landed.
// A retired-and-acked transfer disappears from the map.
func (c *Cluster) StealPhases() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string)
	for _, id := range c.order {
		h := c.handlers[id]
		if h == nil || !h.alive {
			continue
		}
		for x, o := range h.proto.out {
			phase := "prepared"
			if o.aborting {
				phase = "aborting"
			}
			out[id+"/"+strconv.FormatUint(x, 10)] = phase
		}
		for k := range h.proto.unretiredIn {
			kk := k.victim + "/" + strconv.FormatUint(k.xfer, 10)
			if _, own := out[kk]; !own {
				out[kk] = "accepted"
			}
		}
	}
	return out
}

// SyncJournals flushes every live handler's journal buffer to disk so an
// audit replay sees the full record stream.
func (c *Cluster) SyncJournals() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.order {
		h := c.handlers[id]
		if h == nil || !h.alive {
			continue
		}
		if err := h.jr.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// AdoptFilterFor returns a galaxy.RecoverOptions.AdoptFilter that admits
// only the jobs whose cluster key the ring assigns to `self`: the hook that
// turns galaxy.Recover's wholesale expired-lease adoption into a
// partition-aware rebalance when several survivors recover the same dead
// journal. Jobs without a cluster key (legacy single-handler submissions)
// are admitted, preserving the old behavior for them.
func AdoptFilterFor(r *Ring, self string) func(journal.Record) bool {
	return func(submit journal.Record) bool {
		key, ok := keyOfParams(submit.Params)
		if !ok {
			return true
		}
		return r.OwnerOfKey(key) == self
	}
}

// HandlerStatus is one member's row in Status.
type HandlerStatus struct {
	ID           string `json:"id"`
	Alive        bool   `json:"alive"`
	Remote       bool   `json:"remote,omitempty"`
	Stripes      int    `json:"stripes"`
	QueueDepth   int    `json:"queue_depth"`
	Running      int    `json:"running"`
	FreeGPUs     int    `json:"free_gpus"`
	GPUs         int    `json:"gpus"`
	Routed       uint64 `json:"routed"`
	StolenIn     uint64 `json:"stolen_in"`
	StolenOut    uint64 `json:"stolen_out"`
	RebalancedIn uint64 `json:"rebalanced_in"`
	JournalDir   string `json:"journal_dir"`
}

// Status is the cluster's membership and partition view (the /api/cluster
// payload).
type Status struct {
	Handlers   []HandlerStatus `json:"handlers"`
	Stripes    int             `json:"stripes"`
	Partition  []string        `json:"partition"`
	NowSeconds float64         `json:"now_seconds"`
	Steals     uint64          `json:"steals"`
	Rebalances uint64          `json:"rebalances"`
	Jobs       uint64          `json:"jobs"`
	Transport  transport.Stats `json:"transport"`
}

// Status reports membership, the stripe->handler partition table, and
// per-handler load/steal/rebalance counters.
func (c *Cluster) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Stripes:    c.cfg.Stripes,
		Partition:  c.ring.Assignment(),
		NowSeconds: c.now.Seconds(),
		Steals:     c.steals,
		Rebalances: c.rebalances,
		Jobs:       c.nextKey,
		Transport:  c.bus.Stats(),
	}
	counts := c.ring.Counts()
	for _, id := range c.order {
		h := c.handlers[id]
		if h == nil {
			// A remote member: this process knows its stripes and what the
			// local failure detector believes about it, nothing more.
			hs := HandlerStatus{
				ID: id, Alive: !c.deadByLocalViewLocked(id), Remote: true,
				Stripes: counts[id], JournalDir: c.journalDirFor(id),
			}
			st.Handlers = append(st.Handlers, hs)
			continue
		}
		hs := HandlerStatus{
			ID: id, Alive: h.alive, Stripes: counts[id],
			Routed: h.routed, StolenIn: h.stolenIn, StolenOut: h.stolenOut,
			RebalancedIn: h.rebalancedIn, JournalDir: h.dir,
			GPUs: h.g.Cluster.DeviceCount(),
		}
		if h.alive {
			hs.QueueDepth = h.g.QueuedBacklog()
			hs.Running = h.g.RunningGangs()
			hs.FreeGPUs = len(h.g.Cluster.AvailableMinors())
		}
		st.Handlers = append(st.Handlers, hs)
	}
	return st
}

// deadByLocalViewLocked reports whether any locally hosted member has
// declared `id` dead — the best liveness answer a partial-residency process
// can give about a remote peer.
func (c *Cluster) deadByLocalViewLocked(id string) bool {
	for _, lid := range c.order {
		h := c.handlers[lid]
		if h == nil || h.proto == nil || !h.alive {
			continue
		}
		if h.proto.deadSeen[id] {
			return true
		}
	}
	return false
}

// HandlerSurvey is one member's device view in the aggregated cluster
// survey.
type HandlerSurvey struct {
	Handler string     `json:"handler"`
	Alive   bool       `json:"alive"`
	Report  smi.Report `json:"report"`
}

// Survey aggregates an nvidia-smi snapshot from every live member — the
// cross-handler device view the stealing pass decides from, exposed for the
// API and the experiments.
func (c *Cluster) Survey() []HandlerSurvey {
	c.mu.Lock()
	now := c.now
	live := make([]*handler, 0, len(c.order))
	for _, id := range c.order {
		if h := c.handlers[id]; h != nil {
			live = append(live, h)
		}
	}
	c.mu.Unlock()
	out := make([]HandlerSurvey, 0, len(live))
	for _, h := range live {
		hs := HandlerSurvey{Handler: h.id, Alive: h.alive}
		if h.alive {
			hs.Report = smi.Snapshot(h.g.Cluster, now)
		}
		out = append(out, hs)
	}
	return out
}

// scrape mirrors per-handler load and cumulative transport events into the
// labeled gauges at registry scrape time.
func (c *Cluster) scrape() {
	c.mu.Lock()
	live := c.liveLocked()
	counts := c.ring.Counts()
	c.mu.Unlock()
	for _, h := range live {
		c.depthVec.With(h.id).Set(float64(h.g.QueuedBacklog()))
		c.runningVec.With(h.id).Set(float64(h.g.RunningGangs()))
		c.freeVec.With(h.id).Set(float64(len(h.g.Cluster.AvailableMinors())))
		c.stripesVec.With(h.id).Set(float64(counts[h.id]))
	}
	ts := c.bus.Stats()
	for _, e := range []struct {
		name string
		v    uint64
	}{
		{"sent", ts.Sent}, {"delivered", ts.Delivered}, {"dropped", ts.Dropped},
		{"duplicated", ts.Duplicated}, {"delayed", ts.Delayed},
		{"reordered", ts.Reordered}, {"partitioned", ts.Partitioned},
		{"lost_to_kill", ts.LostToKill},
	} {
		c.transportVec.With(e.name).Set(float64(e.v))
	}
	if ps, ok := c.bus.(transport.PeerStatser); ok {
		for peer, st := range ps.PeerStats() {
			c.peerVec.With(peer, "connects").Set(float64(st.Connects))
			c.peerVec.With(peer, "reconnects").Set(float64(st.Reconnects))
			c.peerVec.With(peer, "inflight").Set(float64(st.Inflight))
			c.peerVec.With(peer, "sent").Set(float64(st.Sent))
			c.peerVec.With(peer, "dropped").Set(float64(st.Dropped))
			conn := 0.0
			if st.Connected {
				conn = 1
			}
			c.peerVec.With(peer, "connected").Set(conn)
		}
	}
}

// MemberProtocol is one member's protocol-state snapshot in
// TransportStatus.
type MemberProtocol struct {
	ID    string `json:"id"`
	Alive bool   `json:"alive"`
	// Remote marks members that live in another process (networked bus);
	// their protocol state is not visible here.
	Remote bool `json:"remote,omitempty"`
	// Incarnation is the member's boot generation (bumped on rejoin).
	Incarnation uint64 `json:"incarnation,omitempty"`
	// Warming is true while a rejoined member refuses new work, waiting
	// for every live peer to acknowledge its new incarnation.
	Warming bool `json:"warming,omitempty"`
	// Leases maps each peer to the seconds remaining on its lease
	// (negative: lapsed but not yet swept by the detector).
	Leases map[string]float64 `json:"leases,omitempty"`
	// DeadSeen lists the peers this member has declared dead.
	DeadSeen []string `json:"dead_seen,omitempty"`
	// OutXfers / UnretiredIn / PendingDead count in-flight protocol state:
	// unresolved outbound prepares, accepted-but-unretired inbound
	// transfers, and orphaned prepares awaiting an anti-entropy verdict.
	OutXfers    int `json:"out_xfers"`
	UnretiredIn int `json:"unretired_in"`
	PendingDead int `json:"pending_dead"`
}

// TransportStatus is the bus-and-protocol view (the /api/cluster/transport
// payload).
type TransportStatus struct {
	Bus     transport.Stats  `json:"bus"`
	Members []MemberProtocol `json:"members"`
	// Peers carries connection-level stats per remote peer when the bus is
	// a networked one (tcpbus); absent under the simulated bus.
	Peers map[string]transport.PeerStats `json:"peers,omitempty"`
}

// TransportStatus reports cumulative bus statistics and each live member's
// protocol state: lease table, declared-dead set, and in-flight transfers.
func (c *Cluster) TransportStatus() TransportStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := TransportStatus{Bus: c.bus.Stats()}
	if ps, ok := c.bus.(transport.PeerStatser); ok {
		ts.Peers = ps.PeerStats()
	}
	for _, id := range c.order {
		h := c.handlers[id]
		if h == nil {
			ts.Members = append(ts.Members, MemberProtocol{
				ID: id, Alive: !c.deadByLocalViewLocked(id), Remote: true,
			})
			continue
		}
		mp := MemberProtocol{ID: id, Alive: h.alive, Incarnation: h.inc}
		if h.alive {
			mp.Warming = h.proto.warming
			m := h.proto
			mp.Leases = make(map[string]float64, len(m.leases))
			for p, exp := range m.leases {
				mp.Leases[p] = (exp - c.now).Seconds()
			}
			for d := range m.deadSeen {
				mp.DeadSeen = append(mp.DeadSeen, d)
			}
			sort.Strings(mp.DeadSeen)
			mp.OutXfers = len(m.out)
			mp.UnretiredIn = len(m.unretiredIn)
			mp.PendingDead = len(m.pendingDead)
		}
		ts.Members = append(ts.Members, mp)
	}
	return ts
}
