package cluster

import (
	"sort"
	"time"

	"gyan/internal/transport"
)

// Online anti-entropy: the post-mortem AuditJournals sweep, turned into a
// live protocol. Every aeEveryTicks ticks of virtual time each member sends
// one round-robin peer a digest of the transfer trails the two share —
// grouped by ring stripe, one entry per in-flight transfer — and the peer
// repairs any divergence it can prove from its own journal-backed state:
//
//   - An outbound prepare the thief already accepted (the accept was
//     dropped) → the thief re-acks, the victim retires.
//   - An accepted transfer the victim already resolved (the retire was
//     dropped) → the victim re-sends the retire.
//   - An orphaned prepare inherited from a dead victim (it crashed after
//     detaching the job, before the thief's ack landed) → the claimer asks
//     the tentative thief whether the handoff completed; "no" fences the
//     transfer on the thief and requeues the job on the claimer, "yes"
//     leaves it with the thief. This is the only resolution path that
//     needs no journal replay beyond the death-time archive — divergence
//     heals in at most one full round-robin cycle while the cluster runs.

// aeEveryTicks is the sweep period in ticks (each round sends one
// round-robin peer a digest).
const aeEveryTicks = 2

// aeXfer names one in-flight transfer in a digest, grouped by the ring
// stripe its cluster key hashes to.
type aeXfer struct {
	Stripe int
	Xfer   uint64
	Key    uint64
}

// aeDeadQuery asks the receiver (the tentative thief) to adjudicate an
// orphaned prepare found in a dead victim's journal.
type aeDeadQuery struct {
	Victim string
	Xfer   uint64
}

// aeDigestBody is one member's per-stripe trail digest, scoped to what the
// receiving peer can act on.
type aeDigestBody struct {
	// PreparedOut: transfers the sender prepared naming the receiver as
	// tentative thief, still unresolved on the sender.
	PreparedOut []aeXfer
	// UnretiredIn: transfers the sender accepted from the receiver whose
	// retire has not arrived.
	UnretiredIn []aeXfer
	// DeadQueries: orphaned prepares from dead victims naming the receiver
	// as thief, parked on the sender (the stripe claimer).
	DeadQueries []aeDeadQuery
}

// aeDeadAnswer is the thief's verdict on one orphaned prepare.
type aeDeadAnswer struct {
	Victim   string
	Xfer     uint64
	Accepted bool
}

// aeReplyBody answers a digest's DeadQueries.
type aeReplyBody struct {
	DeadAnswers []aeDeadAnswer
}

// antiEntropy runs this member's periodic sweep: pick the next live
// peer round-robin, build the digest the pair shares, send it.
func (n *Node) antiEntropy(now time.Duration) {
	m := n.proto
	if m.aeStarted && now < m.lastAE+aeEveryTicks*n.cfg.Tick {
		return
	}
	var peers []string
	for _, p := range n.cfg.Members {
		if p != n.id && !m.deadSeen[p] {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		return
	}
	m.aeStarted = true
	m.lastAE = now
	peer := peers[m.aeIdx%len(peers)]
	m.aeIdx++

	var body aeDigestBody
	for x, o := range m.out {
		if o.thief == peer {
			body.PreparedOut = append(body.PreparedOut,
				aeXfer{Stripe: n.ring.StripeOf(o.key), Xfer: x, Key: o.key})
		}
	}
	for k, key := range m.unretiredIn {
		if k.victim == peer {
			body.UnretiredIn = append(body.UnretiredIn,
				aeXfer{Stripe: n.ring.StripeOf(key), Xfer: k.xfer, Key: key})
		}
	}
	for k := range m.pendingDead {
		if m.pendingDead[k].thief == peer {
			body.DeadQueries = append(body.DeadQueries,
				aeDeadQuery{Victim: k.victim, Xfer: k.xfer})
		}
	}
	sort.Slice(body.PreparedOut, func(i, j int) bool { return body.PreparedOut[i].Xfer < body.PreparedOut[j].Xfer })
	sort.Slice(body.UnretiredIn, func(i, j int) bool { return body.UnretiredIn[i].Xfer < body.UnretiredIn[j].Xfer })
	sort.Slice(body.DeadQueries, func(i, j int) bool {
		a, b := body.DeadQueries[i], body.DeadQueries[j]
		if a.Victim != b.Victim {
			return a.Victim < b.Victim
		}
		return a.Xfer < b.Xfer
	})
	if len(body.PreparedOut) == 0 && len(body.UnretiredIn) == 0 && len(body.DeadQueries) == 0 {
		return // nothing shared with this peer: skip the round, not the rotation
	}
	n.send(now, transport.MsgAEDigest, peer, body)
	n.met.aeRounds.With(n.id).Inc()
}

// onAEDigest repairs the divergences a peer's digest exposes.
func (n *Node) onAEDigest(msg transport.Message, now time.Duration) {
	m := n.proto
	body := msg.Body.(aeDigestBody)

	// Sender's unresolved outbound prepares, this member the thief: if the
	// transfer already resolved here, the resolving message was lost —
	// replay it. Still-unseen prepares are left to the victim's own retry.
	for _, x := range body.PreparedOut {
		k := inKey{victim: msg.From, xfer: x.Xfer}
		switch m.inSeen[k] {
		case "accepted":
			n.send(now, transport.MsgStealAccept, msg.From, acceptBody{Xfer: x.Xfer})
			n.met.aeRepairs.With(n.id, "resend_accept").Inc()
		case "aborted", "refused":
			n.send(now, transport.MsgAbortAck, msg.From, abortAckBody{Xfer: x.Xfer})
			n.met.aeRepairs.With(n.id, "resend_abort_ack").Inc()
		}
	}

	// Sender's unretired inbound transfers, this member the victim: an
	// in-flight entry proves the accept was lost (retire now); a missing
	// one means the retire message was lost (re-send it) — a thief-accepted
	// transfer is never rolled back, so resolution can only be the retire.
	for _, x := range body.UnretiredIn {
		if o := m.out[x.Xfer]; o != nil {
			n.retireOut(o, now)
			n.met.aeRepairs.With(n.id, "lost_accept").Inc()
		} else {
			n.send(now, transport.MsgStealRetire, msg.From, retireBody{Xfer: x.Xfer})
			n.met.aeRepairs.With(n.id, "resend_retire").Inc()
		}
	}

	// Orphaned-prepare adjudication, this member the tentative thief: the
	// dedupe table is the truth, and answering "no" fences the transfer so
	// a late duplicate prepare cannot resurrect it afterwards.
	var answers []aeDeadAnswer
	for _, q := range body.DeadQueries {
		k := inKey{victim: q.Victim, xfer: q.Xfer}
		accepted := m.inSeen[k] == "accepted"
		if !accepted && m.inSeen[k] == "" {
			m.inSeen[k] = "refused"
		}
		answers = append(answers, aeDeadAnswer{Victim: q.Victim, Xfer: q.Xfer, Accepted: accepted})
	}
	if len(answers) > 0 {
		n.send(now, transport.MsgAEReply, msg.From, aeReplyBody{DeadAnswers: answers})
	}
}

// onAEReply resolves this member's parked orphaned prepares with the
// thief's verdicts: refused transfers requeue here, accepted ones already
// live under the thief's trail.
func (n *Node) onAEReply(msg transport.Message, now time.Duration) {
	m := n.proto
	for _, a := range msg.Body.(aeReplyBody).DeadAnswers {
		k := inKey{victim: a.Victim, xfer: a.Xfer}
		pd := m.pendingDead[k]
		if pd == nil || pd.thief != msg.From {
			continue
		}
		delete(m.pendingDead, k)
		if a.Accepted {
			continue
		}
		if owner, ok := n.assign[pd.key]; ok && owner != pd.victim {
			continue // already re-homed locally
		}
		if n.ring.OwnerOfKey(pd.key) != n.id {
			continue
		}
		n.requeueDeadKey(pd.victim, pd.jobID, pd.submit, pd.key)
		n.met.aeRepairs.With(n.id, "orphaned_prepare").Inc()
	}
}
