package faults

import (
	"testing"
	"time"
)

func TestMsgPlanMatchAndCount(t *testing.T) {
	p := NewMsgPlan(1,
		MsgRule{Match: MsgMatch{Type: "steal-prepare", To: "h2"}, Fault: MsgFault{Drop: true}, Count: 2},
		MsgRule{Match: MsgMatch{From: "h0"}, Fault: MsgFault{Delay: 40 * time.Millisecond}},
	)

	// First two matching prepares drop; the third falls through to the
	// from-h0 delay rule.
	for i := 0; i < 2; i++ {
		f, ok := p.CheckMsg(MsgSite{Type: "steal-prepare", From: "h0", To: "h2", Seq: uint64(i + 1)})
		if !ok || !f.Drop {
			t.Fatalf("send %d: want drop, got %+v ok=%v", i+1, f, ok)
		}
	}
	f, ok := p.CheckMsg(MsgSite{Type: "steal-prepare", From: "h0", To: "h2", Seq: 3})
	if !ok || f.Drop || f.Delay != 40*time.Millisecond {
		t.Fatalf("send 3: want delay rule after drop budget spent, got %+v ok=%v", f, ok)
	}

	// A message that matches neither rule passes clean.
	if _, ok := p.CheckMsg(MsgSite{Type: "lease-renew", From: "h1", To: "h2"}); ok {
		t.Fatalf("unmatched site fired a fault")
	}

	if got := p.MsgFired(); got != 3 {
		t.Fatalf("MsgFired = %d, want 3", got)
	}
}

func TestMsgPlanProbDeterministic(t *testing.T) {
	run := func() []bool {
		p := NewMsgPlan(42, MsgRule{Match: MsgMatch{Type: "lease-renew"}, Fault: MsgFault{Drop: true}, Prob: 0.5})
		var fired []bool
		for i := 0; i < 64; i++ {
			_, ok := p.CheckMsg(MsgSite{Type: "lease-renew", From: "h0", To: "h1", Seq: uint64(i)})
			fired = append(fired, ok)
		}
		return fired
	}
	a, b := run(), run()
	n := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at consultation %d", i)
		}
		if a[i] {
			n++
		}
	}
	if n == 0 || n == 64 {
		t.Fatalf("prob 0.5 fired %d/64 times; want a mix", n)
	}
}

func TestMsgPlanOneWayPartitions(t *testing.T) {
	p := NewMsgPlan(1)
	if p.Partitioned("h0", "h1") {
		t.Fatal("fresh plan reports a partition")
	}
	p.Cut("h0", "h1")
	if !p.Partitioned("h0", "h1") {
		t.Fatal("explicit cut not reported")
	}
	if p.Partitioned("h1", "h0") {
		t.Fatal("cut is one-way; reverse direction must flow")
	}
	p.Heal("h0", "h1")
	if p.Partitioned("h0", "h1") {
		t.Fatal("healed cut still reported")
	}

	// Wildcards: silence all of h2's outbound, then all inbound to h0.
	p.Cut("h2", "*")
	if !p.Partitioned("h2", "h0") || !p.Partitioned("h2", "h1") {
		t.Fatal("outbound wildcard cut not matching")
	}
	if p.Partitioned("h0", "h2") {
		t.Fatal("outbound wildcard cut blocked inbound")
	}
	p.Cut("*", "h0")
	if !p.Partitioned("h1", "h0") {
		t.Fatal("inbound wildcard cut not matching")
	}
	p.Heal("h2", "*")
	p.Heal("*", "h0")
	if p.Partitioned("h2", "h1") || p.Partitioned("h1", "h0") {
		t.Fatal("wildcard heals did not clear")
	}
}

func TestMsgPlanNilSafe(t *testing.T) {
	var p *MsgPlan
	if _, ok := p.CheckMsg(MsgSite{Type: "x"}); ok {
		t.Fatal("nil plan fired")
	}
	if p.Partitioned("a", "b") {
		t.Fatal("nil plan partitioned")
	}
	p.Cut("a", "b")
	p.Heal("a", "b")
	if p.MsgFired() != 0 {
		t.Fatal("nil plan has state")
	}
}
