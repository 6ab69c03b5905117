package faults

import (
	"fmt"
	"sync"
	"time"

	"gyan/internal/sim"
)

// Message-level fault injection for the cluster transport. Where Plan arms
// faults at dispatch hook points (probe, launch, exec, ...), MsgPlan arms
// them at message sites: one consultation per message the transport sends,
// keyed by message type, sender and receiver. The same determinism contract
// holds — a fixed seed and a fixed Send sequence fire a fixed fault
// sequence — which is what lets the transport chaos suite replay identical
// network weather while comparing protocol behavior.

// MsgSite identifies one message send: which typed message, from whom, to
// whom, and the sender's per-bus sequence number.
type MsgSite struct {
	// Type is the transport message type ("steal-prepare", "lease-renew", ...).
	Type string
	// From and To are the sending and receiving member IDs.
	From, To string
	// Seq is the bus-global send sequence number (1-based).
	Seq uint64
}

func (s MsgSite) String() string {
	return fmt.Sprintf("%s %s->%s seq=%d", s.Type, s.From, s.To, s.Seq)
}

// MsgFault is one injected message-level failure. Fields compose: a rule
// may both delay and duplicate, for example.
type MsgFault struct {
	// Drop loses the message entirely (the canonical lossy-network fault).
	Drop bool
	// Delay adds this much latency on top of the transport's base delay.
	Delay time.Duration
	// Duplicate delivers the message twice (the second copy after an extra
	// base-delay hop, so the copies are not back-to-back).
	Duplicate bool
	// Reorder holds the message back so that traffic sent to the same
	// receiver after it overtakes it in delivery order.
	Reorder bool
}

// MsgMatch selects the message sites a rule applies to. Zero values match
// anything: empty Type any message type, empty From/To any member.
type MsgMatch struct {
	Type string
	From string
	To   string
}

func (m MsgMatch) matches(s MsgSite) bool {
	if m.Type != "" && m.Type != s.Type {
		return false
	}
	if m.From != "" && m.From != s.From {
		return false
	}
	if m.To != "" && m.To != s.To {
		return false
	}
	return true
}

// MsgRule arms one message fault at matching sites.
type MsgRule struct {
	Match MsgMatch
	Fault MsgFault
	// Prob is the chance the fault fires at a matched site; values outside
	// (0, 1) mean "always". Draws come from the plan's seeded RNG.
	Prob float64
	// Count bounds how many times the rule may fire; 0 means unlimited.
	Count int
}

// MsgPlan is a set of armed message-fault rules plus dynamic one-way
// partitions. It is safe for concurrent use.
type MsgPlan struct {
	mu    sync.Mutex
	rng   *sim.RNG
	rules []MsgRule
	fired []int
	// cuts holds active one-way partitions as "from\x00to" keys; "*" on
	// either side matches any member.
	cuts map[string]bool
}

// NewMsgPlan arms the rules with a deterministic RNG for probabilistic ones.
func NewMsgPlan(seed uint64, rules ...MsgRule) *MsgPlan {
	return &MsgPlan{
		rng:   sim.NewRNG(seed),
		rules: append([]MsgRule(nil), rules...),
		fired: make([]int, len(rules)),
		cuts:  make(map[string]bool),
	}
}

// Cut installs a one-way partition: every message from -> to is dropped
// until Heal. "*" on either side matches any member, so Cut("h1", "*")
// silences h1's outbound entirely while its inbound still flows — the
// asymmetric failure a symmetric partition model cannot express.
func (p *MsgPlan) Cut(from, to string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cuts[from+"\x00"+to] = true
}

// Heal removes a one-way partition installed by Cut.
func (p *MsgPlan) Heal(from, to string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.cuts, from+"\x00"+to)
}

// Partitioned reports whether an active cut silences from -> to.
func (p *MsgPlan) Partitioned(from, to string) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.cuts) == 0 {
		return false
	}
	return p.cuts[from+"\x00"+to] || p.cuts[from+"\x00*"] || p.cuts["*\x00"+to]
}

// CheckMsg consults the plan at a message site. The first armed rule that
// matches (in arming order, respecting Count budgets and Prob draws) fires.
// As with Plan.Check, probabilistic rules consume one RNG draw per matching
// consultation whether or not they fire, keeping the draw sequence aligned
// with the send sequence. Partitions are separate: the transport asks
// Partitioned before consulting rules, so a cut never perturbs the RNG.
func (p *MsgPlan) CheckMsg(site MsgSite) (MsgFault, bool) {
	if p == nil {
		return MsgFault{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, r := range p.rules {
		if !r.Match.matches(site) {
			continue
		}
		if r.Count > 0 && p.fired[i] >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && p.rng.Float64() >= r.Prob {
			continue
		}
		p.fired[i]++
		return r.Fault, true
	}
	return MsgFault{}, false
}

// MsgFired reports the total number of message faults fired.
func (p *MsgPlan) MsgFired() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, f := range p.fired {
		n += f
	}
	return n
}
