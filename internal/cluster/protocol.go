package cluster

import (
	"sort"
	"time"

	"gyan/internal/faults"
	"gyan/internal/galaxy"
	"gyan/internal/journal"
	"gyan/internal/sim"
	"gyan/internal/transport"
)

// The member-to-member protocol, run over a transport.Transport (the
// simulated bus under a Sim, tcpbus in a deployment). Every decision a real
// deployment has to make over a network is made by the member itself, from
// state it learned through messages:
//
//   - Membership is a lease table. Every member broadcasts lease renewals
//     (carrying load gossip: queue depth, free GPUs) once per Tick of
//     virtual time; each member tracks every peer's lease expiry and
//     declares a peer dead when its lease lapses — no coordinator assist.
//     A rebalance-claim broadcast lets slower members learn of a death
//     before their own detector fires.
//
//   - Work stealing is a two-phase handoff. A backlogged victim detaches
//     juniors under journaled prepare records (galaxy.PrepareSteal: the
//     jobs leave the scheduler with a tentative owner) and sends
//     steal-prepare messages; the thief journals its accept (a durable
//     submit+adopt pair) and acks; the victim then journals the retire,
//     making the transfer final. Timeouts with jittered faults.Backoff
//     retries resend the prepare; an exhausted budget switches to an
//     abort exchange, and the victim requeues only after the thief
//     acknowledges it never accepted — an accept always outranks an
//     abort, so a transfer can finish or roll back but never both.
//     Duplicate deliveries are deduped by (victim, transfer-ID) epochs on
//     the thief and by the in-flight table on the victim.
//
//   - A dead member's stripes are claimed by the survivors the ring
//     assigns them to, each journaling a rebalance-claim record and
//     replaying the dead journal for the non-terminal keys it now owns.
//     A trail that ends in an unresolved prepare is NOT requeued from the
//     replay alone — only the tentative thief knows whether the handoff
//     completed — so the claimer parks it and lets the anti-entropy sweep
//     (antientropy.go) query the thief and repair it within a bounded
//     number of rounds.
//
// Everything here runs under the member's own mutex, once per step. A Sim
// steps its members at tick boundaries in member order, which keeps an
// N-member run with message faults bit-for-bit deterministic for a fixed
// seed.

// peerLoad is the load gossip a lease renewal carries.
type peerLoad struct {
	Depth int `json:"depth"`
	Free  int `json:"free"`
}

// Message bodies. The simulated bus carries them in-process as live values;
// a serializing transport (tcpbus) round-trips them through the body codec,
// so every type is registered with the transport registry at init.
func init() {
	transport.RegisterBody(transport.MsgLeaseRenew, renewBody{})
	transport.RegisterBody(transport.MsgStealPrepare, prepareBody{})
	transport.RegisterBody(transport.MsgStealAccept, acceptBody{})
	transport.RegisterBody(transport.MsgStealRetire, retireBody{})
	transport.RegisterBody(transport.MsgStealAbort, abortBody{})
	transport.RegisterBody(transport.MsgAbortAck, abortAckBody{})
	transport.RegisterBody(transport.MsgClaim, claimBody{})
	transport.RegisterBody(transport.MsgRejoinAck, rejoinAckBody{})
	transport.RegisterBody(transport.MsgAEDigest, aeDigestBody{})
	transport.RegisterBody(transport.MsgAEReply, aeReplyBody{})
}

type renewBody struct {
	Load peerLoad
	// Inc is the sender's incarnation. A renewal whose incarnation exceeds
	// what the receiver last saw announces a restart: the old life is
	// declared dead (claiming its journal) and the new one rejoins the ring.
	Inc uint64
	// Warming is set while a rejoined sender refuses work awaiting
	// acknowledgement; every receiver re-acks a warming renewal, so a lost
	// rejoin-ack is repaired by the next renewal cycle.
	Warming bool
}

// rejoinAckBody welcomes a rejoined member's new incarnation: the sender has
// declared the old life dead (its journal claimed, its ring stripes
// re-dealt) and re-added the member, so the rejoiner may leave warming once
// every live peer has acked.
type rejoinAckBody struct {
	Inc uint64
}

// prepareBody offers one job: T is its submit record on the victim, which
// names its dataset; the thief resolves the payload from its own registry.
type prepareBody struct {
	Xfer uint64
	Key  uint64
	T    journal.Record
}

type acceptBody struct{ Xfer uint64 }
type retireBody struct{ Xfer uint64 }
type abortBody struct{ Xfer uint64 }

type abortAckBody struct {
	Xfer uint64
	// Accepted reports the thief had already accepted the transfer: the
	// abort is refused and the victim must retire instead.
	Accepted bool
	// Missing names the dataset a refusing thief cannot resolve; the victim
	// stops offering it that dataset (protoState.lacks).
	Missing string
}

type claimBody struct {
	Dead    string
	Stripes []int
}

// inKey names one transfer from the thief's side: transfer IDs are
// allocated per victim, so the pair is globally unique.
type inKey struct {
	victim string
	xfer   uint64
}

// outXfer is the victim's record of one in-flight outbound transfer.
type outXfer struct {
	xferID uint64
	jobID  int
	key    uint64
	thief  string
	t      journal.Record
	// aborting flips when the prepare retry budget is exhausted: from then
	// on the victim pushes the abort exchange instead.
	aborting bool
	attempts int
	nextSend time.Duration
}

// deadPrepare is a claimer's parked orphaned prepare: a trail in a dead
// victim's journal that ends mid-transfer. The anti-entropy sweep resolves
// it by asking the tentative thief.
type deadPrepare struct {
	victim string
	xfer   uint64
	key    uint64
	submit journal.Record
	thief  string
}

// protoState is one member's protocol brain: everything it knows about its
// peers, learned only through bus messages.
type protoState struct {
	rng      *sim.RNG
	leases   map[string]time.Duration
	gossip   map[string]peerLoad
	deadSeen map[string]bool

	// peerInc tracks the highest incarnation seen per peer; a renewal above
	// it triggers the declare-dead-then-rejoin sequence. warming marks a
	// rejoined member that refuses submissions and steals until every live
	// peer has acked (rejoinAcks) its new incarnation.
	peerInc    map[string]uint64
	warming    bool
	rejoinAcks map[string]bool

	renewedOnce bool
	lastRenew   time.Duration

	// Victim side: transfer-ID allocator and in-flight table. stealHold
	// names the peers not to steal toward before the given time: ones that
	// refused, or never accepted, the last transfer offered them.
	nextXfer  uint64
	out       map[uint64]*outXfer
	stealHold map[string]time.Duration
	// lacks names, per peer, the datasets it refused a prepare for want
	// of. They are not offered to it again until it restarts (rejoinPeer):
	// nothing else registers a dataset on a live member.
	lacks map[string]map[string]bool

	// Thief side: per-transfer dedupe epochs ("accepted", "aborted",
	// "refused") and the accepted transfers whose retire has not arrived.
	inSeen      map[inKey]string
	unretiredIn map[inKey]uint64

	// Claimer side: orphaned prepares awaiting thief confirmation.
	pendingDead map[inKey]*deadPrepare

	aeIdx     int
	aeStarted bool
	lastAE    time.Duration
}

func newProtoState(seed uint64, peers []string, self string, ttl time.Duration) *protoState {
	m := &protoState{
		rng:         sim.NewRNG(seed),
		leases:      make(map[string]time.Duration),
		gossip:      make(map[string]peerLoad),
		deadSeen:    make(map[string]bool),
		peerInc:     make(map[string]uint64),
		rejoinAcks:  make(map[string]bool),
		nextXfer:    1,
		out:         make(map[uint64]*outXfer),
		stealHold:   make(map[string]time.Duration),
		lacks:       make(map[string]map[string]bool),
		inSeen:      make(map[inKey]string),
		unretiredIn: make(map[inKey]uint64),
		pendingDead: make(map[inKey]*deadPrepare),
	}
	// Boot grace: every peer starts with a full lease so the detector
	// cannot fire before first renewals have had a chance to arrive.
	for _, p := range peers {
		if p != self {
			m.leases[p] = ttl
		}
	}
	return m
}

// protocolPass is the second half of a step: one pass of the member
// protocol at the member's current time.
func (n *Node) protocolPass() {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.now
	n.deliver(now)
	n.warmCheck()
	n.detectFailures(now)
	n.renewLease(now)
	n.stealDecision(now)
	n.resend(now)
	n.antiEntropy(now)
}

// send puts one protocol message from this member on the bus.
func (n *Node) send(now time.Duration, typ, to string, body any) {
	n.bus.Send(now, typ, n.id, to, body)
}

// deliver drains and processes this member's inbound messages.
func (n *Node) deliver(now time.Duration) {
	for _, msg := range n.bus.Receive(now, n.id) {
		switch msg.Type {
		case transport.MsgLeaseRenew:
			n.onRenew(msg, now)
		case transport.MsgRejoinAck:
			n.onRejoinAck(msg)
		case transport.MsgStealPrepare:
			n.onPrepare(msg, now)
		case transport.MsgStealAccept:
			n.onAccept(msg, now)
		case transport.MsgStealRetire:
			n.onRetire(msg)
		case transport.MsgStealAbort:
			n.onAbort(msg, now)
		case transport.MsgAbortAck:
			n.onAbortAck(msg, now)
		case transport.MsgClaim:
			n.onClaim(msg, now)
		case transport.MsgAEDigest:
			n.onAEDigest(msg, now)
		case transport.MsgAEReply:
			n.onAEReply(msg, now)
		}
	}
}

// onRenew folds one lease renewal into the member's lease table. The
// lease extends from the renewal's SEND time — a delayed message proves
// liveness only as of when it left the sender. A renewal carrying a higher
// incarnation than the peer's last-known one announces a restart: the old
// life is declared dead first (even if its lease never lapsed — the claim
// and journal replay must happen exactly once per death) and the new life
// is welcomed back into the ring.
func (n *Node) onRenew(msg transport.Message, now time.Duration) {
	m := n.proto
	body := msg.Body.(renewBody)
	known := m.peerInc[msg.From]
	if known == 0 {
		known = 1 // every member boots at incarnation 1
	}
	if body.Inc > known {
		if !m.deadSeen[msg.From] && !n.declareDead(msg.From, now) {
			return // old life's journal unreadable: the next renewal retries
		}
		n.rejoinPeer(msg.From, body.Inc)
	} else if m.deadSeen[msg.From] {
		return // no resurrection: the same incarnation stays dead
	}
	if body.Inc > m.peerInc[msg.From] {
		m.peerInc[msg.From] = body.Inc
	}
	if exp := msg.SentAt + n.cfg.MemberTTL; exp > m.leases[msg.From] {
		m.leases[msg.From] = exp
	}
	m.gossip[msg.From] = body.Load
	if body.Warming {
		// Re-ack every warming renewal: a lost rejoin-ack would otherwise
		// leave the rejoiner refusing work forever.
		n.send(now, transport.MsgRejoinAck, msg.From, rejoinAckBody{Inc: body.Inc})
	}
}

// rejoinPeer welcomes a restarted peer's new incarnation: clear the
// declared-dead fence, re-add it to the ring (mirroring the Remove the
// death performed, so every member's stripe table replays the same op
// history), and drop the stale post-mortem archive so a future death of the
// NEW incarnation replays the journal fresh.
func (n *Node) rejoinPeer(peer string, inc uint64) {
	delete(n.proto.deadSeen, peer)
	delete(n.proto.lacks, peer) // the new life registered its own datasets
	n.proto.peerInc[peer] = inc
	n.ring.Add(peer)
	delete(n.dead, peer)
	n.met.rejoins.With(peer).Inc()
}

// onRejoinAck collects a survivor's welcome; warming ends when every
// live peer has acked this member's current incarnation (warmCheck).
func (n *Node) onRejoinAck(msg transport.Message) {
	m := n.proto
	body := msg.Body.(rejoinAckBody)
	if !m.warming || body.Inc != n.cfg.Incarnation {
		return
	}
	m.rejoinAcks[msg.From] = true
}

// warmCheck leaves warming once every peer this member considers live
// has acknowledged its incarnation. A peer that is genuinely down stops
// blocking the exit when its lease lapses and it lands in deadSeen.
func (n *Node) warmCheck() {
	m := n.proto
	if !m.warming {
		return
	}
	for _, p := range n.cfg.Members {
		if p == n.id || m.deadSeen[p] {
			continue
		}
		if !m.rejoinAcks[p] {
			return
		}
	}
	m.warming = false
}

// renewLease broadcasts this member's lease renewal with load gossip.
// Renewals go to EVERY peer, including ones this member has declared dead:
// a renewal is also the resurrection beacon. If a "dead" peer is actually a
// restarted process — or a live one that transiently declared US dead — the
// incarnation it carries is what lets the two sides converge again
// (onRenew's rejoin path). Skipping deadSeen peers here deadlocks a
// networked restart permanently: after a kill -9, the survivor and the
// rebooted member can each declare the other dead inside one reconnect
// backoff window, and with neither renewing to the other, the rejoin
// trigger never fires. Renewals to a genuinely dead member are a bounded
// trickle the bus counts as lost — the price of the beacon.
func (n *Node) renewLease(now time.Duration) {
	m := n.proto
	if m.renewedOnce && now < m.lastRenew+n.cfg.Tick {
		return
	}
	m.renewedOnce = true
	m.lastRenew = now
	load := peerLoad{Depth: n.g.QueuedBacklog(), Free: n.g.FreeGPUs(now)}
	if m.warming {
		// Advertise no capacity while warming: a peer enticed into preparing
		// a steal here would only be refused.
		load = peerLoad{}
	}
	for _, p := range n.cfg.Members {
		if p == n.id {
			continue
		}
		n.send(now, transport.MsgLeaseRenew, p,
			renewBody{Load: load, Inc: n.cfg.Incarnation, Warming: m.warming})
	}
	n.met.renewals.With(n.id).Inc()
}

// detectFailures declares every peer whose lease has lapsed.
func (n *Node) detectFailures(now time.Duration) {
	m := n.proto
	for _, p := range n.cfg.Members {
		if p == n.id || m.deadSeen[p] {
			continue
		}
		if exp, ok := m.leases[p]; ok && now >= exp && n.declareDead(p, now) {
			n.met.expiries.With(n.id, p).Inc()
		}
	}
}

// stealDecision starts a two-phase steal when this member is
// backlogged and gossip shows an idle peer. One batch in flight at a time.
func (n *Node) stealDecision(now time.Duration) {
	m := n.proto
	if m.warming || len(m.out) > 0 {
		return
	}
	depth := n.g.QueuedBacklog()
	if depth < n.cfg.stealThreshold {
		return
	}
	var thief string
	bestFree := 0
	for _, p := range n.cfg.Members {
		if p == n.id || m.deadSeen[p] || now < m.stealHold[p] {
			continue
		}
		gl, ok := m.gossip[p]
		if !ok {
			continue
		}
		if gl.Depth == 0 && gl.Free > bestFree {
			thief, bestFree = p, gl.Free
		}
	}
	if thief == "" {
		return
	}
	take := bestFree
	if take > depth {
		take = depth
	}
	prepared := n.g.PrepareSteal(take, thief, m.nextXfer, m.lacks[thief])
	m.nextXfer += uint64(len(prepared))
	for _, ps := range prepared {
		key, _ := keyOfParams(ps.T.Params)
		m.out[ps.Xfer] = &outXfer{
			xferID: ps.Xfer, jobID: ps.JobID, key: key, thief: thief, t: ps.T,
			attempts: 1, nextSend: now + n.stealBackoff().Delay(1, m.rng),
		}
		n.send(now, transport.MsgStealPrepare, thief,
			prepareBody{Xfer: ps.Xfer, Key: key, T: ps.T})
		n.met.prepares.With(n.id, thief).Inc()
	}
	// Don't immediately re-target the same peer from stale gossip.
	if gl, ok := m.gossip[thief]; ok {
		gl.Free -= len(prepared)
		if gl.Free < 0 {
			gl.Free = 0
		}
		m.gossip[thief] = gl
	}
}

// onPrepare is the thief's phase one: journal the accept (a durable
// submit+adopt pair under this member's epoch) and ack. Duplicate prepares
// re-ack idempotently; prepares from members this one has declared dead
// are refused — their journals have already been claimed, and accepting
// now could double-run a job a claimer requeued.
func (n *Node) onPrepare(msg transport.Message, now time.Duration) {
	m := n.proto
	body := msg.Body.(prepareBody)
	k := inKey{victim: msg.From, xfer: body.Xfer}
	if m.deadSeen[msg.From] || m.warming {
		// Dead victims' journals are already claimed; a warming member must
		// not let new trails appear in its journal while survivors may still
		// be replaying its previous life's. Either way: refuse.
		if m.inSeen[k] == "" {
			m.inSeen[k] = "refused"
		}
		n.send(now, transport.MsgAbortAck, msg.From, abortAckBody{Xfer: body.Xfer})
		return
	}
	switch m.inSeen[k] {
	case "accepted":
		n.send(now, transport.MsgStealAccept, msg.From, acceptBody{Xfer: body.Xfer})
	case "aborted", "refused":
		n.send(now, transport.MsgAbortAck, msg.From, abortAckBody{Xfer: body.Xfer})
	default:
		// A thief that cannot resolve the job's dataset by name refuses it,
		// and the job stays on the victim, which has the payload.
		_, known := n.g.Dataset(body.T.Dataset)
		var job *galaxy.Job
		var err error
		if known {
			job, err = n.g.AcceptTransfer(msg.From, body.T)
		}
		if !known || err != nil {
			m.inSeen[k] = "refused"
			ack := abortAckBody{Xfer: body.Xfer}
			if !known {
				ack.Missing = body.T.Dataset
			}
			n.send(now, transport.MsgAbortAck, msg.From, ack)
			return
		}
		m.inSeen[k] = "accepted"
		m.unretiredIn[k] = body.Key
		n.stolenIn++
		n.met.steals.With(n.id, msg.From).Inc()
		n.met.accepts.With(n.id, msg.From).Inc()
		n.bind(body.Key, job)
		n.send(now, transport.MsgStealAccept, msg.From, acceptBody{Xfer: body.Xfer})
	}
}

// onAccept is the victim's phase two: journal the retire, making the
// transfer final, and tell the thief. An accept for an unknown transfer
// means the retire already happened and the earlier retire message may
// have been lost — re-send it.
func (n *Node) onAccept(msg transport.Message, now time.Duration) {
	m := n.proto
	body := msg.Body.(acceptBody)
	o := m.out[body.Xfer]
	if o == nil {
		n.send(now, transport.MsgStealRetire, msg.From, retireBody{Xfer: body.Xfer})
		return
	}
	n.retireOut(o, now)
}

// retireOut finalizes one outbound transfer: journal the retire,
// notify the thief, drop the in-flight entry.
func (n *Node) retireOut(o *outXfer, now time.Duration) {
	n.g.RetireSteal(o.jobID)
	n.stolenOut++
	n.met.retires.With(n.id, o.thief).Inc()
	delete(n.proto.out, o.xferID)
	n.rehomeRetired(o.key, o.thief)
	n.send(now, transport.MsgStealRetire, o.thief, retireBody{Xfer: o.xferID})
}

// rehomeRetired points the victim's assign entry at the thief once a
// transfer retires. Without it the victim would still read itself as the
// key's owner — which makes declareDead's "already re-homed" gate skip the
// key if the thief later dies owing it. Only a binding that still names this
// member is moved: anything else means a later transfer already won.
func (n *Node) rehomeRetired(key uint64, thief string) {
	if cur, ok := n.assign[key]; !ok || cur == n.id {
		n.assign[key] = thief
	}
}

// onRetire clears the thief-side unretired marker. Idempotent.
func (n *Node) onRetire(msg transport.Message) {
	body := msg.Body.(retireBody)
	delete(n.proto.unretiredIn, inKey{victim: msg.From, xfer: body.Xfer})
}

// onAbort is the thief's answer to a victim giving up: if this
// member already accepted, the abort is refused (Accepted: true) and the
// victim retires instead; otherwise the transfer is fenced as aborted so a
// late prepare cannot resurrect it.
func (n *Node) onAbort(msg transport.Message, now time.Duration) {
	m := n.proto
	body := msg.Body.(abortBody)
	k := inKey{victim: msg.From, xfer: body.Xfer}
	if m.inSeen[k] == "accepted" {
		n.send(now, transport.MsgAbortAck, msg.From, abortAckBody{Xfer: body.Xfer, Accepted: true})
		return
	}
	if m.inSeen[k] == "" {
		m.inSeen[k] = "aborted"
	}
	n.send(now, transport.MsgAbortAck, msg.From, abortAckBody{Xfer: body.Xfer})
}

// onAbortAck resolves the victim's abort exchange: a refused abort
// (the thief accepted first) retires; a confirmed one requeues locally at
// original seniority. A thief that refused the prepare (it cannot resolve the
// job's dataset, say) answers the same way. Either way the victim holds off
// stealing toward it for one backoff base, so the requeued job meets at
// least one local scheduling cycle before it can be offered again; without
// the hold a victim would re-prepare it in the same pass, and a refusing
// thief would keep it off every queue. A refusal that names a missing
// dataset also takes that dataset off the offers to the thief; a timeout
// abort, whose ack names none, marks nothing.
func (n *Node) onAbortAck(msg transport.Message, now time.Duration) {
	m := n.proto
	body := msg.Body.(abortAckBody)
	o := m.out[body.Xfer]
	if o == nil {
		return
	}
	if body.Accepted {
		n.retireOut(o, now)
		return
	}
	n.g.AbortSteal(o.jobID, "thief never accepted the transfer")
	delete(m.out, body.Xfer)
	m.stealHold[o.thief] = now + n.stealBackoff().Base
	if body.Missing != "" {
		if m.lacks[o.thief] == nil {
			m.lacks[o.thief] = make(map[string]bool)
		}
		m.lacks[o.thief][body.Missing] = true
	}
	n.met.aborts.With(n.id, o.thief).Inc()
}

// stealBackoff paces two-phase steal retries: the prepare is re-sent on this
// schedule until the attempt budget is spent, then the victim switches to
// the abort exchange.
func (n *Node) stealBackoff() faults.Backoff {
	return faults.Backoff{MaxAttempts: 4, Base: 3 * n.cfg.Tick, Max: 12 * n.cfg.Tick, Jitter: 0.2}
}

// resend drives timeouts: prepares are re-sent on a jittered
// exponential backoff; an exhausted budget flips the transfer into the
// abort exchange, whose sends retry indefinitely at the capped delay
// (abort must eventually land or the thief must die — either resolves).
func (n *Node) resend(now time.Duration) {
	m := n.proto
	if len(m.out) == 0 {
		return
	}
	backoff := n.stealBackoff()
	xfers := make([]uint64, 0, len(m.out))
	for x := range m.out {
		xfers = append(xfers, x)
	}
	sort.Slice(xfers, func(i, j int) bool { return xfers[i] < xfers[j] })
	for _, x := range xfers {
		o := m.out[x]
		if o == nil || now < o.nextSend {
			continue
		}
		if !o.aborting && o.attempts >= backoff.Attempts() {
			o.aborting = true
			o.attempts = 0
		}
		o.attempts++
		if o.aborting {
			n.send(now, transport.MsgStealAbort, o.thief, abortBody{Xfer: x})
		} else {
			n.send(now, transport.MsgStealPrepare, o.thief,
				prepareBody{Xfer: x, Key: o.key, T: o.t})
		}
		n.met.retries.With(n.id).Inc()
		o.nextSend = now + backoff.Delay(o.attempts, m.rng)
	}
}

// onClaim: a peer announced a member's death and its stripe claims.
// Treat it as a detection trigger — learning of a death from a claim is
// faster than waiting for the local lease to lapse.
func (n *Node) onClaim(msg transport.Message, now time.Duration) {
	body := msg.Body.(claimBody)
	if body.Dead == n.id {
		return // "reports of my death": nothing to do, no resurrection path
	}
	if !n.proto.deadSeen[body.Dead] {
		n.declareDead(body.Dead, now)
	}
}

// declareDead is one member's reaction to a peer's death: replay the peer's
// journal into a post-mortem archive, take the peer out of this member's
// ring, journal a rebalance-claim for the stripes this member inherited,
// broadcast the claim, requeue the dead member's non-terminal keys this
// member now owns, and park orphaned prepares for the anti-entropy sweep.
// Also resolves this member's own in-flight transfers that named the dead
// peer.
//
// The replay comes first and its failure declares nothing: an empty archive
// cached in place of an unreadable journal would silently drop every job the
// peer owed. The peer stays undeclared (lease lapsed, stripes unclaimed) and
// whichever trigger fires next — the detector's next pass, a claim, a
// higher-incarnation renewal — retries. Reports whether the peer was
// declared.
func (n *Node) declareDead(dead string, now time.Duration) bool {
	// A missing directory replays as empty; torn tails are tolerated.
	recs, _, err := journal.ReplayAll(n.dirOf(dead))
	if err != nil {
		n.met.deadReplayErrors.With(n.id, dead).Inc()
		return false
	}
	hist := journal.Fold(recs)
	keys := make(map[uint64]bool, len(hist.Jobs))
	for _, t := range hist.Jobs {
		if key, ok := keyOfParams(t.Submit.Params); ok {
			keys[key] = true
		}
	}
	n.dead[dead] = keys
	m := n.proto
	m.deadSeen[dead] = true
	delete(m.leases, dead)
	delete(m.gossip, dead)
	// Thief-side closure: an accepted transfer is final on the thief's
	// durable accept; a retire from a dead victim will never arrive.
	for k := range m.unretiredIn {
		if k.victim == dead {
			delete(m.unretiredIn, k)
		}
	}

	// Resolve this member's own protocol state that referenced the dead —
	// outbound transfers whose thief died, and parked prepares whose
	// tentative thief died — BEFORE walking the dead journal for requeues:
	// retiring an accepted-but-unretired transfer re-homes its assign entry
	// to the dead thief, which is what lets the rehome loop below pick the
	// key up instead of skipping it as someone else's.
	n.resolveDeadThief(dead)

	// Claim the inherited stripes, durably.
	var stripes []int
	for s, owner := range n.ring.Remove(dead) {
		if owner == n.id {
			stripes = append(stripes, s)
		}
	}
	sort.Ints(stripes)
	if len(stripes) > 0 {
		rec := journal.Record{
			Type: journal.TypeClaim, At: now, Handler: n.id, From: dead, Stripes: stripes,
		}
		if err := n.jr.Append(rec); err == nil {
			n.met.claims.With(n.id, dead).Inc()
		}
	}
	for _, p := range n.cfg.Members {
		if p == n.id || p == dead || m.deadSeen[p] {
			continue
		}
		n.send(now, transport.MsgClaim, p, claimBody{Dead: dead, Stripes: stripes})
	}

	// Rehome the dead member's still-owned non-terminal keys that the ring
	// now assigns to this member.
	for _, jid := range hist.Order {
		t := hist.Jobs[jid]
		if t.State.Done() || t.Owner != dead {
			continue
		}
		key, ok := keyOfParams(t.Submit.Params)
		if !ok {
			continue
		}
		if owner, ok := n.assign[key]; ok && owner != dead {
			continue // already re-homed (stolen away before the death)
		}
		// A key absent from this member's assign map never passed through
		// here; the dead journal is the only witness, so fall through and
		// requeue it.
		if n.ring.OwnerOfKey(key) != n.id {
			continue // another claimer's stripe
		}
		if t.State == journal.StatePrepared {
			n.parkOrphanedPrepare(dead, t, key)
			continue
		}
		n.requeueDeadKey(dead, t.Submit, key)
	}
	return true
}

// requeueDeadKey resubmits one of a dead member's jobs on this one, from its
// submit record in the dead journal, at original seniority. A job whose
// dataset this member has not registered is accepted without a payload and
// fails when it runs.
func (n *Node) requeueDeadKey(dead string, sub journal.Record, key uint64) {
	job, err := n.g.AcceptTransfer(dead, sub)
	if err != nil {
		return // registry mismatch; the audit will surface the key as lost
	}
	n.bind(key, job)
	n.rebalancedIn++
	n.met.rebalanced.With(dead, n.id).Inc()
}

// parkOrphanedPrepare handles a dead victim's trail that ends
// mid-transfer. If this member IS the tentative thief it resolves locally
// from its own dedupe table; otherwise the anti-entropy sweep will query
// the thief. A dead thief is resolved immediately from its archive.
func (n *Node) parkOrphanedPrepare(dead string, t *journal.Trail, key uint64) {
	m := n.proto
	thief := t.Last.Handler // the trail ends in its prepare
	xfer := t.Last.Xfer
	k := inKey{victim: dead, xfer: xfer}
	if thief == n.id {
		// The claimer is the tentative thief: its own table is the truth.
		if m.inSeen[k] == "accepted" {
			return // already accepted and tracked under this member's trail
		}
		m.inSeen[k] = "refused" // fence any late duplicate prepare
		n.requeueDeadKey(dead, t.Submit, key)
		n.met.aeRepairs.With(n.id, "orphaned_prepare").Inc()
		return
	}
	if m.deadSeen[thief] {
		n.resolveOrphanAgainstDeadThief(dead, t.Submit, key, thief)
		return
	}
	m.pendingDead[k] = &deadPrepare{
		victim: dead, xfer: xfer, key: key, submit: t.Submit, thief: thief,
	}
}

// resolveOrphanAgainstDeadThief decides an orphaned prepare when the
// tentative thief is ALSO dead (declared by this member, so its archive is
// here): its replayed journal is the truth. An accepted transfer appears
// there as a trail for the same key adopted from the victim; absent that,
// the handoff never happened and the key requeues here.
func (n *Node) resolveOrphanAgainstDeadThief(dead string, sub journal.Record, key uint64, thief string) {
	if n.dead[thief][key] {
		return // the thief accepted; its own claimer rehomes the key
	}
	n.requeueDeadKey(dead, sub, key)
	n.met.aeRepairs.With(n.id, "orphaned_prepare").Inc()
}

// resolveDeadThief cleans up this member's in-flight state that
// named the dead peer: outbound transfers consult the dead thief's journal
// (accepted → retire; never accepted → abort and requeue), and parked
// orphan queries resolve against the archive.
func (n *Node) resolveDeadThief(dead string) {
	m := n.proto
	var xfers []uint64
	for x, o := range m.out {
		if o.thief == dead {
			xfers = append(xfers, x)
		}
	}
	sort.Slice(xfers, func(i, j int) bool { return xfers[i] < xfers[j] })
	for _, x := range xfers {
		o := m.out[x]
		if n.dead[dead][o.key] {
			n.g.RetireSteal(o.jobID)
			n.stolenOut++
			n.met.retires.With(n.id, dead).Inc()
			n.rehomeRetired(o.key, dead)
		} else {
			n.g.AbortSteal(o.jobID, "thief died before accepting")
			n.met.aborts.With(n.id, dead).Inc()
		}
		delete(m.out, x)
	}
	for k, pd := range m.pendingDead {
		if pd.thief != dead {
			continue
		}
		delete(m.pendingDead, k)
		if owner, ok := n.assign[pd.key]; ok && owner != pd.victim {
			continue
		}
		if n.ring.OwnerOfKey(pd.key) != n.id {
			continue
		}
		n.resolveOrphanAgainstDeadThief(pd.victim, pd.submit, pd.key, dead)
	}
}
