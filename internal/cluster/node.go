package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

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

// DefaultStripes is the ring's stripe count: the unit of ownership it
// partitions.
const DefaultStripes = 32

// Config shapes one cluster member.
type Config struct {
	// Members is the full cluster membership by ID, identical on every
	// member (boot order: protocol passes and views list members this way).
	Members []string
	// Local is this member's identity: exactly one ID out of Members.
	Local []string
	// Bus is this member's only route to its peers — the simulated bus under
	// a Sim, tcpbus in a deployment. The caller owns its lifecycle.
	Bus transport.Transport
	// WallClock paces Step: each Step advances the member's virtual clock to
	// WallClock(). Lease TTLs, steal backoffs and AE rounds key off that
	// elapsed time (scaled however the caller's clock maps it).
	WallClock func() time.Duration
	// Incarnation is this process's member-catalog incarnation; values above
	// 1 mean a restart-rejoin: the member's own journal is replayed only to
	// advance the job-ID allocator (survivors own the old jobs), the ring is
	// reconstructed through the same remove+add the survivors applied, and
	// the member boots warming — refusing submissions and steals until every
	// live peer has acknowledged the new incarnation.
	Incarnation uint64
	// KeyOffset/KeyStride carve the global key space between members
	// (member i of P uses offset i, stride P) so concurrently drawn keys
	// never collide. Defaults 0 and 1.
	KeyOffset uint64
	KeyStride uint64
	// Dir is the journal root shared by the membership: this member journals
	// to Dir/<id> and replays a dead peer's journal from Dir/<peer>.
	Dir string
	// Tick is the protocol quantum: renewals go out once per Tick and the
	// other cadences (member TTL, steal backoff, anti-entropy) default to
	// multiples of it. Default 500ms of virtual time.
	Tick time.Duration
	// LeaseTTL configures the member's journal lease heartbeats.
	LeaseTTL time.Duration
	// Seed fixes the protocol randomness (retry backoff jitter). Default 1.
	Seed uint64
	// MemberTTL is how long a member's lease lasts from each renewal's
	// send time; a peer whose lease lapses is declared dead. Default
	// 6 ticks.
	MemberTTL time.Duration
	// Journal tunes the member's write-ahead log. DurableSubmits is forced
	// on for adopt/submit durability unless DisableDurableSubmits.
	Journal journal.Options
	// DisableDurableSubmits trades the acked-implies-durable guarantee for
	// speed (throughput experiments that never crash handlers).
	DisableDurableSubmits bool
	// Sched configures the member's batch scheduler.
	Sched sched.Config
	// Tools registers tool bindings on the member's Galaxy; default
	// RegisterDefaultTools.
	Tools func(*galaxy.Galaxy) error

	// stealThreshold is the minimum backlog a victim must carry before an
	// idle peer steals from it: 2 (a trivially short queue is cheaper to
	// drain locally than to move) unless a steal test sets another.
	stealThreshold int
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

// JobRef names a routed job: its global key plus the handler and
// handler-local ID it lives under (both of which change if the job is stolen
// or rebalanced).
type JobRef struct {
	Key     uint64 `json:"key"`
	Handler string `json:"handler"`
	ID      int    `json:"id"`
}

// Node is one cluster member: a full galaxy.Galaxy (own discrete-event
// engine, GPU node, batch scheduler and write-ahead journal) plus everything
// the member protocol needs — its own ring view, its own key->owner bindings
// and local job table, its own post-mortem archive of each peer it declared
// dead, and its protocol state. Everything it knows about a peer it learned
// from a message on Bus or, once the peer is dead, from the peer's journal
// under Dir.
//
// Submit, KillJob, RegisterDataset, the read-only views and the obs registry
// are safe to call concurrently with Step from other goroutines; Step itself
// must be driven from a single goroutine.
type Node struct {
	cfg Config
	id  string
	g   *galaxy.Galaxy
	jr  *journal.Journal
	bus transport.Transport
	met *metrics

	mu sync.Mutex
	// down is set by a crash or Close: the journal is gone and the engine
	// never runs again.
	down     bool
	now      time.Duration
	ring     *Ring
	nextKey  uint64
	datasets map[string]any
	// assign is this member's belief about who owns each key it has handled;
	// jobs is the local job behind every key that ever lived here.
	assign map[uint64]string
	jobs   map[uint64]*galaxy.Job
	// dead is the post-mortem archive of every peer this member declared
	// dead: the cluster keys the peer's journal (Dir/<peer>, replayed and
	// folded) holds a trail for — for a tentative thief, the proof that it
	// accepted a transfer.
	dead  map[string]map[uint64]bool
	proto *protoState
	// routed/stolenIn/stolenOut/rebalancedIn count jobs for Status.
	routed, stolenIn, stolenOut, rebalancedIn uint64
}

// errNotOwner marks a pinned submission this member's ring assigns elsewhere.
var errNotOwner = errors.New("cluster: key belongs to another member's stripe")

// New builds and boots one wall-paced member — what gyan-server -bus tcp
// hosts. (A Sim builds its lockstep members through the same newNode.)
func New(cfg Config) (*Node, error) {
	if cfg.WallClock == nil {
		return nil, errors.New("cluster: Config.WallClock is required (NewSim drives lockstep members)")
	}
	return newNode(cfg, obs.NewRegistry())
}

func newNode(cfg Config, reg *obs.Registry) (*Node, error) {
	if len(cfg.Local) != 1 {
		return nil, fmt.Errorf("cluster: Config.Local is this member's identity: exactly one ID, got %v", cfg.Local)
	}
	id := cfg.Local[0]
	self := slices.Index(cfg.Members, id)
	if self < 0 {
		return nil, fmt.Errorf("cluster: member %q not in membership %v", id, cfg.Members)
	}
	if cfg.Bus == nil || cfg.Dir == "" {
		return nil, errors.New("cluster: Config.Bus and Config.Dir are required: peers are reached over Bus and their journals replayed from Dir/<peer>")
	}
	if cfg.KeyStride == 0 {
		cfg.KeyStride = 1
	}
	if cfg.Incarnation == 0 {
		cfg.Incarnation = 1
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 500 * time.Millisecond
	}
	if cfg.stealThreshold <= 0 {
		cfg.stealThreshold = 2
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
	ring, err := NewRing(DefaultStripes, cfg.Members)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.Dir, id)
	gopts := []galaxy.Option{galaxy.WithScheduler(sched.New(cfg.Sched))}
	if cfg.Incarnation > 1 {
		// A rejoining incarnation reopens its old journal directory. Its
		// previous life's non-terminal work belongs to the survivors who
		// claimed it, so nothing is requeued from the replay — but the job-ID
		// allocator must advance past every ID the directory has ever issued,
		// or the new life's journal trails would collide with the old ones
		// and corrupt the exactly-once audit fold. An unreadable journal
		// therefore refuses the boot rather than restarting the allocator.
		recs, _, err := journal.ReplayAll(dir)
		if err != nil {
			return nil, fmt.Errorf("cluster: rejoin %s: replay own journal: %w", id, err)
		}
		gopts = append(gopts, galaxy.WithJobIDBase(journal.Fold(recs).MaxJob))
		// Reconstruct the ring surgery the survivors performed when this
		// member's previous incarnation died: remove then re-add. Ring ops
		// are history-dependent, so replaying the same op sequence is what
		// keeps every member's stripe table convergent (single-death
		// histories; see DESIGN §13).
		ring.Remove(id)
		ring.Add(id)
	}
	jopts := cfg.Journal
	if !cfg.DisableDurableSubmits {
		jopts.DurableSubmits = true
	}
	jr, err := journal.Open(dir, jopts)
	if err != nil {
		return nil, fmt.Errorf("cluster: open journal for %s: %w", id, err)
	}
	gopts = append(gopts, galaxy.WithJournal(jr, id))
	if cfg.LeaseTTL > 0 {
		gopts = append(gopts, galaxy.WithLeaseTTL(cfg.LeaseTTL))
	}
	g := galaxy.New(nil, gopts...)
	if err := cfg.Tools(g); err != nil {
		jr.Close() // nothing was journaled; the boot error is the one to report
		return nil, err
	}
	n := &Node{
		cfg: cfg, id: id, g: g, jr: jr, bus: cfg.Bus, met: newMetrics(reg),
		ring:     ring,
		nextKey:  cfg.KeyOffset,
		datasets: make(map[string]any),
		assign:   make(map[uint64]string),
		jobs:     make(map[uint64]*galaxy.Job),
		dead:     make(map[string]map[uint64]bool),
		// Every member seeds its own RNG stream and boots with a full lease
		// for each peer (the detector's grace period).
		proto: newProtoState(cfg.Seed^(0x9e3779b97f4a7c15*uint64(self+1)), cfg.Members, id, cfg.MemberTTL),
	}
	// Rejoin warming: no submissions and no thieving until every live peer
	// has acknowledged the new incarnation — the window in which survivors
	// replay this member's old journal must close before new trails can
	// appear in it.
	n.proto.warming = cfg.Incarnation > 1
	n.met.up.With(id).Set(1)
	reg.OnScrape(n.scrape)
	return n, nil
}

// dirOf maps any member to its journal directory under the shared root.
func (n *Node) dirOf(id string) string { return filepath.Join(n.cfg.Dir, id) }

// Close closes the member's journal (releasing its flock).
func (n *Node) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil
	}
	n.down = true
	return n.jr.Close()
}

// crash kills the member the way kill -9 does: its journal is abandoned with
// torn garbage bytes appended (the mid-write artifact), its flock is released,
// and its engine never runs again. The kill lands between two virtual ticks,
// so its durable prefix is defined in virtual terms too: everything the
// member journaled up to this instant is fenced to disk first. Without the
// fence the prefix would end wherever the flusher goroutines happened to be,
// and what the survivors requeue would depend on host load.
func (n *Node) crash(torn []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down = true
	n.met.up.With(n.id).Set(0)
	if err := n.jr.Sync(); err != nil {
		return err
	}
	return n.jr.CrashTorn(torn)
}

func (n *Node) alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.down
}

// Registry returns the member's handler-labeled metrics registry.
func (n *Node) Registry() *obs.Registry { return n.met.reg }

// RegisterDataset names a payload for routed submissions. Rebalancing and
// serialized steals re-resolve datasets by name from this registry (payloads
// never touch a journal or the wire), so jobs must be submitted with a
// registered name, registered on every member.
func (n *Node) RegisterDataset(name string, payload any) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.datasets[name] = payload
}

// Now returns the member's virtual time.
func (n *Node) Now() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.now
}

// Submit journals one tool execution on this member, with the cluster key
// threaded through its journaled params. A member accepts only keys whose
// stripe its own ring assigns to itself: a drawn key advances along the
// member's stride past stripes owned elsewhere (a burned key never reaches
// any journal, so the audit never sees it), and a pinned key owned elsewhere
// is refused without consuming anything — the caller offers it to the owning
// member, or retries verbatim once a failover's claims have landed.
func (n *Node) Submit(tool string, params map[string]string, datasetName string, opts SubmitOptions) (JobRef, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ds, ok := n.datasets[datasetName]
	if !ok {
		return JobRef{}, fmt.Errorf("cluster: unknown dataset %q", datasetName)
	}
	if n.proto.warming {
		return JobRef{}, fmt.Errorf("cluster: member %q is warming up after rejoin; retry", n.id)
	}
	key := n.nextKey
	if opts.Key != nil {
		key = *opts.Key
		if _, dup := n.assign[key]; dup {
			return JobRef{}, fmt.Errorf("cluster: key %d already in use", key)
		}
	}
	for tries := 0; n.ring.OwnerOfKey(key) != n.id; tries++ {
		if opts.Key != nil {
			return JobRef{}, fmt.Errorf("%w: %s's ring assigns key %d to %q", errNotOwner, n.id, key, n.ring.OwnerOfKey(key))
		}
		// A full pass over the stripes without hitting one of its own means
		// this member's ring gives it none.
		if tries >= 4*DefaultStripes {
			return JobRef{}, fmt.Errorf("cluster: no stripe owned by %q reachable from key %d", n.id, n.nextKey)
		}
		key += n.cfg.KeyStride
	}
	p := make(map[string]string, len(params)+1)
	for k, v := range params {
		p[k] = v
	}
	p[KeyParam] = strconv.FormatUint(key, 10)
	job, err := n.g.Submit(tool, p, ds, galaxy.SubmitOptions{
		Delay: opts.Delay, Runtime: opts.Runtime, User: opts.User,
		Priority: opts.Priority, GPUs: opts.GPUs, EstRuntime: opts.EstRuntime,
		DatasetName: datasetName,
	})
	if err != nil {
		return JobRef{}, err
	}
	if key >= n.nextKey {
		n.nextKey = key + n.cfg.KeyStride
	}
	n.bind(key, job)
	n.routed++
	n.met.routed.With(n.id).Inc()
	return JobRef{Key: key, Handler: n.id, ID: job.ID}, nil
}

// bind records that key now lives on this member as job.
func (n *Node) bind(key uint64, job *galaxy.Job) {
	n.assign[key] = n.id
	n.jobs[key] = job
}

// Lookup returns the job a key lives (or last lived) under on this member:
// a stolen-away key keeps its terminal `stolen` record here, while the
// thief's Lookup shows the live one.
func (n *Node) Lookup(key uint64) (JobRef, *galaxy.Job, bool) {
	ref, job, claim := n.lookup(key)
	return ref, job, claim > 0
}

// lookup is Lookup plus a grade of how strongly this member claims the key:
// 3 when it believes itself the owner, 2 while an unresolved outbound
// prepare makes that ownership tentative, 1 once it handed the key to a
// peer, 0 when the key never lived here. A Sim's stitched Lookup picks the
// strongest claim.
func (n *Node) lookup(key uint64) (JobRef, *galaxy.Job, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	job := n.jobs[key]
	if job == nil {
		return JobRef{}, nil, 0
	}
	claim := 3
	if n.assign[key] != n.id {
		claim = 1
	}
	for _, o := range n.proto.out {
		if o.key == key {
			claim = 2
		}
	}
	return JobRef{Key: key, Handler: n.id, ID: job.ID}, job, claim
}

// Keys returns every cluster key with a job on this member, ascending.
func (n *Node) Keys() []uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]uint64, 0, len(n.jobs))
	for k := range n.jobs {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KillJob cancels a key's job on this member (a no-op once terminal).
func (n *Node) KillJob(key uint64) bool {
	n.mu.Lock()
	job, down := n.jobs[key], n.down
	n.mu.Unlock()
	if job == nil || down {
		return false
	}
	n.g.Kill(job)
	return true
}

// Step advances the member to its wall clock: the engine drains its events
// up to that instant, then the member runs one protocol pass (message
// delivery, failure detection, lease renewal, steal decisions, retries,
// anti-entropy). Returns whether the member still has pending events,
// backlog or an unresolved protocol exchange. The clock is monotonic: a
// WallClock reading behind the member's time never rewinds it.
func (n *Node) Step() bool {
	target := n.Now()
	if w := n.cfg.WallClock(); w > target {
		target = w
	}
	n.advanceTo(target)
	n.protocolPass()
	return n.busy()
}

// advanceTo is the first half of a step: run the engine up to target and
// align the member's clock there.
func (n *Node) advanceTo(target time.Duration) {
	n.g.Engine.RunUntil(target)
	n.g.Engine.Clock().AdvanceTo(target)
	n.mu.Lock()
	n.now = target
	n.mu.Unlock()
}

// busy reports whether another step could make progress: pending engine
// events, scheduler backlog, or an unresolved two-phase transfer (victim
// out-table, thief unretired set, or a parked orphaned prepare awaiting an
// anti-entropy verdict). Lease renewals perpetually in flight on the bus
// deliberately do NOT count as busy — they carry no work.
func (n *Node) busy() bool {
	n.mu.Lock()
	m := n.proto
	down := n.down
	inFlight := len(m.out) > 0 || len(m.unretiredIn) > 0 || len(m.pendingDead) > 0
	n.mu.Unlock()
	return !down && (inFlight || n.g.Engine.Pending() > 0 || n.g.QueuedBacklog() > 0)
}

// SyncJournals flushes the member's journal buffer to disk so an audit
// replay sees the full record stream.
func (n *Node) SyncJournals() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil
	}
	return n.jr.Sync()
}

// keyOfParams extracts the cluster key a routed submission carries.
func keyOfParams(params map[string]string) (uint64, bool) {
	key, err := strconv.ParseUint(params[KeyParam], 10, 64)
	return key, err == nil
}

// HandlerStatus is one member's row in Status.
type HandlerStatus struct {
	ID    string `json:"id"`
	Alive bool   `json:"alive"`
	// Remote marks a peer's row in a member's own Status: the member knows
	// the peer's stripes and what its failure detector believes, nothing
	// more.
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

// Status is a membership and partition view (the /api/cluster payload).
type Status struct {
	Handlers   []HandlerStatus `json:"handlers"`
	Stripes    int             `json:"stripes"`
	Partition  []string        `json:"partition"`
	NowSeconds float64         `json:"now_seconds"`
	Steals     uint64          `json:"steals"`
	Rebalances uint64          `json:"rebalances"`
	// Jobs counts the keys routed (first submitted) here.
	Jobs      uint64          `json:"jobs"`
	Transport transport.Stats `json:"transport"`
}

// Status reports this member's view: its own ring's stripe->member table,
// its own load/steal/rebalance counters, and a Remote row per peer.
func (n *Node) Status() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := Status{
		Stripes:    DefaultStripes,
		Partition:  n.ring.Assignment(),
		NowSeconds: n.now.Seconds(),
		Steals:     n.stolenIn,
		Rebalances: n.rebalancedIn,
		Jobs:       n.routed,
		Transport:  n.bus.Stats(),
	}
	counts := n.ring.Counts()
	for _, id := range n.cfg.Members {
		hs := HandlerStatus{
			ID: id, Alive: !n.proto.deadSeen[id], Remote: id != n.id,
			Stripes: counts[id], JournalDir: n.dirOf(id),
		}
		if id == n.id {
			hs.Alive = !n.down
			hs.Routed, hs.StolenIn, hs.StolenOut = n.routed, n.stolenIn, n.stolenOut
			hs.RebalancedIn = n.rebalancedIn
			hs.GPUs = n.g.Cluster.DeviceCount()
		}
		if id == n.id && !n.down {
			hs.QueueDepth = n.g.QueuedBacklog()
			hs.Running = n.g.RunningGangs()
			hs.FreeGPUs = len(n.g.Cluster.AvailableMinors())
		}
		st.Handlers = append(st.Handlers, hs)
	}
	return st
}

// HandlerSurvey is one member's device view in a cluster survey.
type HandlerSurvey struct {
	Handler string     `json:"handler"`
	Alive   bool       `json:"alive"`
	Report  smi.Report `json:"report"`
}

// Survey returns this member's nvidia-smi snapshot — the device view its
// load gossip is computed from.
func (n *Node) Survey() []HandlerSurvey {
	n.mu.Lock()
	hs := HandlerSurvey{Handler: n.id, Alive: !n.down}
	now := n.now
	n.mu.Unlock()
	if hs.Alive {
		hs.Report = smi.Snapshot(n.g.Cluster, now)
	}
	return []HandlerSurvey{hs}
}

// scrape mirrors the member's load and cumulative transport events into the
// labeled gauges at registry scrape time.
func (n *Node) scrape() {
	n.mu.Lock()
	down := n.down
	stripes := n.ring.Counts()[n.id]
	n.mu.Unlock()
	if down {
		return
	}
	n.met.depth.With(n.id).Set(float64(n.g.QueuedBacklog()))
	n.met.running.With(n.id).Set(float64(n.g.RunningGangs()))
	n.met.free.With(n.id).Set(float64(len(n.g.Cluster.AvailableMinors())))
	n.met.stripes.With(n.id).Set(float64(stripes))
	ts := n.bus.Stats()
	for _, e := range []struct {
		name string
		v    uint64
	}{
		{"sent", ts.Sent}, {"delivered", ts.Delivered}, {"dropped", ts.Dropped},
		{"duplicated", ts.Duplicated}, {"delayed", ts.Delayed},
		{"reordered", ts.Reordered}, {"partitioned", ts.Partitioned},
		{"lost_to_kill", ts.LostToKill},
	} {
		n.met.transport.With(e.name).Set(float64(e.v))
	}
	if ps, ok := n.bus.(transport.PeerStatser); ok {
		for peer, st := range ps.PeerStats() {
			n.met.peer.With(peer, "connects").Set(float64(st.Connects))
			n.met.peer.With(peer, "reconnects").Set(float64(st.Reconnects))
			n.met.peer.With(peer, "inflight").Set(float64(st.Inflight))
			n.met.peer.With(peer, "sent").Set(float64(st.Sent))
			n.met.peer.With(peer, "dropped").Set(float64(st.Dropped))
			conn := 0.0
			if st.Connected {
				conn = 1
			}
			n.met.peer.With(peer, "connected").Set(conn)
		}
	}
}

// MemberProtocol is one member's protocol-state snapshot in
// TransportStatus.
type MemberProtocol struct {
	ID    string `json:"id"`
	Alive bool   `json:"alive"`
	// Remote marks a peer's row in a member's own TransportStatus: only the
	// member's failure-detector verdict on it is known.
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

// TransportStatus reports cumulative bus statistics, this member's protocol
// state (lease table, declared-dead set, in-flight transfers) and a Remote
// row per peer.
func (n *Node) TransportStatus() TransportStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	ts := TransportStatus{Bus: n.bus.Stats()}
	if ps, ok := n.bus.(transport.PeerStatser); ok {
		ts.Peers = ps.PeerStats()
	}
	m := n.proto
	for _, id := range n.cfg.Members {
		mp := MemberProtocol{ID: id, Alive: !m.deadSeen[id], Remote: true}
		if id == n.id {
			mp = MemberProtocol{ID: id, Alive: !n.down, Incarnation: n.cfg.Incarnation}
		}
		if id == n.id && !n.down {
			mp.Warming = m.warming
			mp.Leases = make(map[string]float64, len(m.leases))
			for p, exp := range m.leases {
				mp.Leases[p] = (exp - n.now).Seconds()
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
