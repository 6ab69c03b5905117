package cluster

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"gyan/internal/faults"
	"gyan/internal/galaxy"
	"gyan/internal/obs"
	"gyan/internal/sched"
	"gyan/internal/transport"
)

// SimConfig shapes a simulated cluster: the simulation's own knobs plus the
// member-level settings handed to every Node (see Config for those).
type SimConfig struct {
	// Handlers is the member count N (>= 1); members are h0 .. h<N-1>.
	Handlers int
	// Tick is the lockstep quantum: engines run independently inside a tick,
	// and member-to-member work happens only at tick boundaries, in member
	// order — that is what makes an N-member run deterministic.
	Tick time.Duration

	Sched sched.Config

	// seed is every member's Config.Seed (default 1); the chaos tests vary it.
	seed           uint64
	stealThreshold int // see Config
	// msgFaults, when set, injects message-level faults (drop, delay,
	// duplicate, reorder, one-way partitions) into the simulated bus; the
	// chaos tests arm it.
	msgFaults *faults.MsgPlan
}

// Sim is N Nodes on one simulated bus, stepped in lockstep. It owns nothing
// a member owns — no ring, binding, job or archive table: it drives its
// members through the calls a server would make (Submit, KillJob,
// RegisterDataset, the two step halves, crash and Close) and stitches its
// views from theirs.
//
// Submit, KillJob, the views and the obs registry are safe to call
// concurrently with Run/Step from other goroutines (the -race hammers do
// exactly that); Step itself must be driven from a single goroutine.
type Sim struct {
	nodes  []*Node
	bus    *transport.Bus
	tick   time.Duration
	tmpDir string

	mu      sync.Mutex
	now     time.Duration
	nextKey uint64
}

// NewSim builds and boots a simulated cluster. Every member starts alive
// with an empty journal in its own directory under the root.
func NewSim(cfg SimConfig) (*Sim, error) {
	if cfg.Handlers < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 handler, got %d", cfg.Handlers)
	}
	dir, err := os.MkdirTemp("", "gyan-cluster-*")
	if err != nil {
		return nil, err
	}
	s := &Sim{bus: transport.New(cfg.msgFaults), tmpDir: dir}
	members := make([]string, cfg.Handlers)
	for i := range members {
		members[i] = "h" + strconv.Itoa(i)
	}
	reg := obs.NewRegistry()
	for _, id := range members {
		n, err := newNode(Config{
			Members: members, Local: []string{id}, Bus: s.bus,
			Dir: dir, Tick: cfg.Tick, stealThreshold: cfg.stealThreshold, Seed: cfg.seed,
			Sched: cfg.Sched,
		}, reg)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
	}
	s.tick = s.nodes[0].cfg.Tick
	return s, nil
}

// Close closes every live member's journal and removes the temp journal
// root.
func (s *Sim) Close() error {
	var errs []error
	for _, n := range s.nodes {
		errs = append(errs, n.Close())
	}
	if s.tmpDir != "" {
		errs = append(errs, os.RemoveAll(s.tmpDir))
		s.tmpDir = ""
	}
	return errors.Join(errs...)
}

// Registry returns the registry every member's handler-labeled series live
// in.
func (s *Sim) Registry() *obs.Registry { return s.nodes[0].Registry() }

// Node returns a member (its per-member views are the ones a deployment's
// process would serve); nil for an unknown ID.
func (s *Sim) Node(id string) *Node {
	for _, n := range s.nodes {
		if n.id == id {
			return n
		}
	}
	return nil
}

// JournalDirs maps each member ID to its journal directory (the audit
// surface: see AuditJournals).
func (s *Sim) JournalDirs() map[string]string {
	out := make(map[string]string, len(s.nodes))
	for _, n := range s.nodes {
		out[n.id] = n.dirOf(n.id)
	}
	return out
}

// RegisterDataset names a payload on every member.
func (s *Sim) RegisterDataset(name string, payload any) {
	for _, n := range s.nodes {
		n.RegisterDataset(name, payload)
	}
}

// Now returns the lockstep virtual time.
func (s *Sim) Now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

func (s *Sim) live() []*Node {
	out := make([]*Node, 0, len(s.nodes))
	for _, n := range s.nodes {
		if n.alive() {
			out = append(out, n)
		}
	}
	return out
}

// Submit is the front door: it draws the next key (or takes the pinned one)
// and offers it to the live members in member order; the member whose own
// ring assigns the key's stripe to itself journals it. When none does — the
// stripe's owner is dead and no survivor has claimed it yet — the key is NOT
// consumed and the caller retries verbatim, exactly as against a real
// crashed node.
func (s *Sim) Submit(tool string, params map[string]string, datasetName string, opts SubmitOptions) (JobRef, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := s.nextKey
	if opts.Key != nil {
		key = *opts.Key
	}
	opts.Key = &key
	for _, n := range s.live() {
		ref, err := n.Submit(tool, params, datasetName, opts)
		if errors.Is(err, errNotOwner) {
			continue
		}
		if err == nil && key >= s.nextKey {
			s.nextKey = key + 1
		}
		return ref, err
	}
	return JobRef{}, fmt.Errorf("cluster: no live member's ring assigns key %d to itself (failover in progress); retry", key)
}

// Lookup returns the current binding of a key: among the members that have
// a job for it, the one with the strongest claim (see Node.lookup), a live
// member outranking a dead one.
func (s *Sim) Lookup(key uint64) (ref JobRef, job *galaxy.Job, ok bool) {
	best := 0
	for _, n := range s.nodes {
		r, j, claim := n.lookup(key)
		rank := 2 * claim
		if claim > 0 && n.alive() {
			rank++
		}
		if rank > best {
			ref, job, best = r, j, rank
		}
	}
	return ref, job, best > 0
}

// Keys returns every routed cluster key in ascending order.
func (s *Sim) Keys() []uint64 {
	seen := make(map[uint64]bool)
	var out []uint64
	for _, n := range s.nodes {
		for _, k := range n.Keys() {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KillJob cancels a routed job wherever it currently lives (a no-op once
// terminal). An unknown key or a dead member is galaxy.ErrNoJob, and a job
// mid-steal or stolen is refused as Node.KillJob refuses it.
func (s *Sim) KillJob(key uint64) error {
	ref, _, ok := s.Lookup(key)
	if !ok {
		return fmt.Errorf("%w: key %d", galaxy.ErrNoJob, key)
	}
	return s.Node(ref.Handler).KillJob(key)
}

// Step advances the cluster by one lockstep tick: every live member's
// engine drains its events up to the tick boundary, then every live member
// runs one protocol pass, in member order. Returns whether any live member
// could still make progress (see Node.busy).
func (s *Sim) Step() bool {
	live := s.live()
	s.mu.Lock()
	s.now += s.tick
	target := s.now
	s.mu.Unlock()
	for _, n := range live {
		n.advanceTo(target)
	}
	for _, n := range live {
		n.protocolPass()
	}
	return slices.ContainsFunc(live, (*Node).busy)
}

// Run drives ticks until the cluster drains or virtual time passes horizon,
// and returns the final virtual time.
func (s *Sim) Run(horizon time.Duration) time.Duration {
	for s.Step() && s.Now() < horizon {
	}
	return s.Now()
}

// KillHandler kills a member the way kill -9 does: its journal is abandoned
// at the last completed tick's records with torn garbage bytes appended (see
// Node.crash), its undelivered bus messages vanish, and its engine never runs
// again. That is ALL it does — no ring surgery, no journal replay, no
// re-homing. The survivors notice the death themselves when the member's
// lease lapses (or a peer's rebalance-claim arrives first), claim its stripes
// through journaled claim records, and requeue its non-terminal work — see
// Node.declareDead.
func (s *Sim) KillHandler(id string, torn []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.Node(id)
	if n == nil {
		return fmt.Errorf("cluster: unknown handler %q", id)
	}
	if !n.alive() {
		return fmt.Errorf("cluster: handler %q is already dead", id)
	}
	if len(s.live()) < 2 {
		return errors.New("cluster: refusing to kill the last live handler")
	}
	if err := n.crash(torn); err != nil {
		return err
	}
	s.bus.Kill(id)
	return nil
}

// SyncJournals flushes every live member's journal buffer to disk so an
// audit replay sees the full record stream.
func (s *Sim) SyncJournals() error {
	for _, n := range s.nodes {
		if err := n.SyncJournals(); err != nil {
			return err
		}
	}
	return nil
}

// JournalError returns the first live member's latched journal failure,
// nil while every live member's journal is healthy.
func (s *Sim) JournalError() error {
	for _, n := range s.live() {
		if err := n.JournalError(); err != nil {
			return err
		}
	}
	return nil
}

// Status stitches the members' own views: each member contributes its own
// row and counters, and a stripe is listed under the first live member
// whose ring assigns it to itself — the partition Submit routes by. A
// stripe nobody claims yet (its owner dead, the survivors not caught up)
// reads "".
func (s *Sim) Status() Status {
	st := Status{
		Stripes: DefaultStripes, Partition: make([]string, DefaultStripes),
		NowSeconds: s.Now().Seconds(), Transport: s.bus.Stats(),
	}
	for i, n := range s.nodes {
		ns := n.Status()
		row := ns.Handlers[i]
		row.Stripes = 0
		for stripe, owner := range ns.Partition {
			if row.Alive && owner == n.id && st.Partition[stripe] == "" {
				st.Partition[stripe] = n.id
				row.Stripes++
			}
		}
		st.Handlers = append(st.Handlers, row)
		st.Steals += ns.Steals
		st.Rebalances += ns.Rebalances
		st.Jobs += ns.Jobs
	}
	return st
}

// TransportStatus reports cumulative bus statistics and each member's own
// protocol row.
func (s *Sim) TransportStatus() TransportStatus {
	ts := TransportStatus{Bus: s.bus.Stats()}
	for i, n := range s.nodes {
		ts.Members = append(ts.Members, n.TransportStatus().Members[i])
	}
	return ts
}

// Survey aggregates an nvidia-smi snapshot from every member — the
// cross-handler device view, exposed for the API and the experiments.
func (s *Sim) Survey() []HandlerSurvey {
	var out []HandlerSurvey
	for _, n := range s.nodes {
		out = append(out, n.Survey()...)
	}
	return out
}
