// Package transport is the in-process simulated message bus the cluster
// members talk over. It models an asymmetric, unreliable datacenter network
// on the same deterministic footing as the rest of the simulator: every
// message pays a fixed base latency, and a faults.MsgPlan can drop, delay,
// duplicate, reorder, or one-way-partition messages at named sites. The bus
// never invokes receivers — members poll Receive at tick boundaries, which
// keeps delivery order a pure function of (seed, send sequence) and makes
// every chaos run replayable.
package transport

import (
	"sort"
	"sync"
	"time"

	"gyan/internal/faults"
)

// Message type names. These are the protocol vocabulary of the cluster:
// the two-phase steal exchange, lease renewal, rebalance claims, and the
// anti-entropy digest/repair sweep.
const (
	MsgStealPrepare = "steal-prepare" // victim -> thief: take these jobs (tentative)
	MsgStealAccept  = "steal-accept"  // thief -> victim: accepted and journaled
	MsgStealRetire  = "steal-retire"  // victim -> thief: transfer is final
	MsgStealAbort   = "steal-abort"   // victim -> thief: prepare timed out, requeued
	MsgAbortAck     = "steal-abort-ack"
	MsgLeaseRenew   = "lease-renew"     // member -> all: I'm alive, plus load gossip
	MsgClaim        = "rebalance-claim" // survivor -> all: I claimed these stripes
	MsgAEDigest     = "ae-digest"       // member -> peer: per-stripe trail digest
	MsgAEReply      = "ae-reply"        // peer -> member: divergence report
	MsgRejoinAck    = "rejoin-ack"      // survivor -> rejoiner: new incarnation welcomed
)

// Message is one typed envelope in flight or delivered.
type Message struct {
	Type     string
	From, To string
	// Seq is the bus-global send sequence (1-based). A duplicated copy
	// shares the original's Seq with Dup set.
	Seq uint64
	Dup bool
	// SentAt and DeliverAt are sim-clock stamps.
	SentAt    time.Duration
	DeliverAt time.Duration
	// Body is the typed payload; receivers type-assert on Type.
	Body any
}

// baseDelay is the one-way latency every message pays.
const baseDelay = 5 * time.Millisecond

// Stats counts bus traffic and injected faults.
type Stats struct {
	Sent        uint64 `json:"sent"`
	Delivered   uint64 `json:"delivered"`
	Dropped     uint64 `json:"dropped"`
	Duplicated  uint64 `json:"duplicated"`
	Delayed     uint64 `json:"delayed"`
	Reordered   uint64 `json:"reordered"`
	Partitioned uint64 `json:"partitioned"`
	LostToKill  uint64 `json:"lost_to_kill"`
}

// Transport is the surface the cluster protocol rides: the simulated Bus and
// the real-socket tcpbus.Bus both implement it. Send never blocks and never
// fails — loss is a statistic, not an error, because every protocol exchange
// already tolerates drops via retries. Receive pops whatever has arrived for
// a member, ordered by (DeliverAt, Seq). Crash and restart at the network
// layer (Kill, Revive) and partitions belong to the concrete buses: the
// protocol never calls them, the chaos tests and the conformance suite do.
type Transport interface {
	Send(now time.Duration, typ, from, to string, body any)
	Receive(now time.Duration, to string) []Message
	Stats() Stats
}

// PeerStats is one peer's connection-level view on a networked transport.
type PeerStats struct {
	Addr       string `json:"addr"`
	Connects   uint64 `json:"connects"`
	Reconnects uint64 `json:"reconnects"`
	Inflight   int    `json:"inflight"`
	Sent       uint64 `json:"sent"`
	Dropped    uint64 `json:"dropped"`
	Connected  bool   `json:"connected"`
}

// PeerStatser is the optional Transport extension a networked bus implements;
// the obs scrape and /api/cluster/transport mirror it when present.
type PeerStatser interface {
	PeerStats() map[string]PeerStats
}

// Bus is the simulated network. Safe for concurrent use, though under the
// cluster's lockstep tick discipline sends happen in deterministic order.
type Bus struct {
	mu     sync.Mutex
	plan   *faults.MsgPlan
	seq    uint64
	queues map[string][]Message
	dead   map[string]bool
	stats  Stats
}

// Bus implements the Transport surface the cluster programs against.
var _ Transport = (*Bus)(nil)

// New builds a bus. The plan injects message faults; nil means a perfect
// network.
func New(plan *faults.MsgPlan) *Bus {
	return &Bus{
		plan:   plan,
		queues: make(map[string][]Message),
		dead:   make(map[string]bool),
	}
}

// Send enqueues one typed message. The fault plan is consulted once per
// send; a Drop loses it, Delay adds latency, Duplicate enqueues a second
// copy one base-delay later, and Reorder holds the message back by two
// base delays so traffic sent after it overtakes it.
func (b *Bus) Send(now time.Duration, typ, from, to string, body any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead[to] {
		// Checked before the sequence and Sent counters move: a message to a
		// killed member never existed on the wire, so it only counts under
		// LostToKill — Sent stays an honest wire-traffic count.
		b.stats.LostToKill++
		return
	}
	b.seq++
	b.stats.Sent++
	plan := b.plan
	if plan.Partitioned(from, to) {
		b.stats.Partitioned++
		return
	}
	lat := baseDelay
	msg := Message{Type: typ, From: from, To: to, Seq: b.seq, SentAt: now, Body: body}
	fault, fired := plan.CheckMsg(faults.MsgSite{Type: typ, From: from, To: to, Seq: b.seq})
	if fired {
		if fault.Drop {
			b.stats.Dropped++
			return
		}
		if fault.Delay > 0 {
			lat += fault.Delay
			b.stats.Delayed++
		}
		if fault.Reorder {
			lat += 2 * baseDelay
			b.stats.Reordered++
		}
		if fault.Duplicate {
			dup := msg
			dup.Dup = true
			dup.DeliverAt = now + lat + baseDelay
			b.queues[to] = append(b.queues[to], dup)
			b.stats.Duplicated++
		}
	}
	msg.DeliverAt = now + lat
	b.queues[to] = append(b.queues[to], msg)
}

// Receive pops every message addressed to `to` whose delivery time has
// arrived, ordered by (DeliverAt, Seq). Later messages stay queued.
func (b *Bus) Receive(now time.Duration, to string) []Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.queues[to]
	if len(q) == 0 {
		return nil
	}
	var due, rest []Message
	for _, m := range q {
		if m.DeliverAt <= now {
			due = append(due, m)
		} else {
			rest = append(rest, m)
		}
	}
	if len(due) == 0 {
		return nil
	}
	b.queues[to] = rest
	sort.SliceStable(due, func(i, j int) bool {
		if due[i].DeliverAt != due[j].DeliverAt {
			return due[i].DeliverAt < due[j].DeliverAt
		}
		return due[i].Seq < due[j].Seq
	})
	b.stats.Delivered += uint64(len(due))
	return due
}

// Kill models a kill -9 of a member: its inbound queue is destroyed
// (messages in flight to it are lost) and future sends to it are counted
// as lost instead of queued forever.
func (b *Bus) Kill(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.LostToKill += uint64(len(b.queues[id]))
	delete(b.queues, id)
	b.dead[id] = true
}

// Revive reopens a killed member's inbound side: the restart half of
// kill -9. The queue was destroyed at kill time, so the member comes back
// with a fresh (empty) inbox — nothing sent during the outage is
// resurrected — and sends to it queue again.
func (b *Bus) Revive(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.dead, id)
}

// Stats returns a snapshot of the traffic counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}
