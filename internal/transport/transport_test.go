package transport

import (
	"testing"
	"time"

	"gyan/internal/faults"
)

func TestBusDeliversInOrderAfterLatency(t *testing.T) {
	b := New(nil)
	b.Send(0, MsgLeaseRenew, "h0", "h1", 1)
	b.Send(time.Millisecond, MsgStealPrepare, "h0", "h1", 2)
	b.Send(0, MsgLeaseRenew, "h0", "h2", 3)

	if got := b.Receive(4*time.Millisecond, "h1"); got != nil {
		t.Fatalf("delivered before latency elapsed: %+v", got)
	}
	got := b.Receive(10*time.Millisecond, "h1")
	if len(got) != 2 || got[0].Body.(int) != 1 || got[1].Body.(int) != 2 {
		t.Fatalf("wrong delivery: %+v", got)
	}
	if got[0].Seq >= got[1].Seq || got[0].DeliverAt != 5*time.Millisecond {
		t.Fatalf("ordering metadata wrong: %+v", got)
	}
	if again := b.Receive(20*time.Millisecond, "h1"); again != nil {
		t.Fatalf("double delivery: %+v", again)
	}
	if other := b.Receive(10*time.Millisecond, "h2"); len(other) != 1 || other[0].Body.(int) != 3 {
		t.Fatalf("h2 delivery wrong: %+v", other)
	}
	st := b.Stats()
	if st.Sent != 3 || st.Delivered != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestBusFaults(t *testing.T) {
	plan := faults.NewMsgPlan(7,
		faults.MsgRule{Match: faults.MsgMatch{Type: MsgStealPrepare}, Fault: faults.MsgFault{Drop: true}, Count: 1},
		faults.MsgRule{Match: faults.MsgMatch{Type: MsgStealAccept}, Fault: faults.MsgFault{Duplicate: true}, Count: 1},
		faults.MsgRule{Match: faults.MsgMatch{Type: MsgStealRetire}, Fault: faults.MsgFault{Reorder: true}, Count: 1},
		faults.MsgRule{Match: faults.MsgMatch{Type: MsgLeaseRenew}, Fault: faults.MsgFault{Delay: 100 * time.Millisecond}, Count: 1},
	)
	b := New(plan)

	// Drop: never arrives.
	b.Send(0, MsgStealPrepare, "h0", "h1", "p")
	if got := b.Receive(time.Second, "h1"); got != nil {
		t.Fatalf("dropped message arrived: %+v", got)
	}

	// Duplicate: two copies, second marked Dup, later.
	b.Send(0, MsgStealAccept, "h1", "h0", "a")
	got := b.Receive(time.Second, "h0")
	if len(got) != 2 || got[0].Dup || !got[1].Dup || got[0].Seq != got[1].Seq {
		t.Fatalf("duplicate delivery wrong: %+v", got)
	}

	// Reorder: retire sent first is overtaken by a renew sent after it.
	b.Send(0, MsgStealRetire, "h0", "h2", "r")
	b.Send(time.Millisecond, MsgLeaseRenew+"-x", "h0", "h2", "l") // unmatched type: clean send
	got = b.Receive(time.Second, "h2")
	if len(got) != 2 || got[0].Body.(string) != "l" || got[1].Body.(string) != "r" {
		t.Fatalf("reorder did not overtake: %+v", got)
	}

	// Delay: renew held past its normal latency.
	b.Send(0, MsgLeaseRenew, "h0", "h3", "slow")
	if got := b.Receive(50*time.Millisecond, "h3"); got != nil {
		t.Fatalf("delayed message arrived early: %+v", got)
	}
	if got := b.Receive(200*time.Millisecond, "h3"); len(got) != 1 {
		t.Fatalf("delayed message lost: %+v", got)
	}

	st := b.Stats()
	if st.Dropped != 1 || st.Duplicated != 1 || st.Reordered != 1 || st.Delayed != 1 {
		t.Fatalf("fault stats: %+v", st)
	}
}

func TestBusOneWayPartitionAndKill(t *testing.T) {
	plan := faults.NewMsgPlan(1)
	b := New(plan)

	plan.Cut("h0", "h1")
	b.Send(0, MsgLeaseRenew, "h0", "h1", nil)
	b.Send(0, MsgLeaseRenew, "h1", "h0", nil)
	if got := b.Receive(time.Second, "h1"); got != nil {
		t.Fatalf("partitioned direction delivered: %+v", got)
	}
	if got := b.Receive(time.Second, "h0"); len(got) != 1 {
		t.Fatalf("reverse direction blocked: %+v", got)
	}
	plan.Heal("h0", "h1")
	b.Send(time.Second, MsgLeaseRenew, "h0", "h1", nil)
	if got := b.Receive(2*time.Second, "h1"); len(got) != 1 {
		t.Fatalf("healed direction still blocked: %+v", got)
	}

	// Kill: in-flight to the dead member lost, future sends lost too.
	b.Send(2*time.Second, MsgLeaseRenew, "h0", "h2", nil)
	b.Kill("h2")
	if got := b.Receive(time.Minute, "h2"); got != nil {
		t.Fatalf("dead member received: %+v", got)
	}
	b.Send(3*time.Second, MsgLeaseRenew, "h0", "h2", nil)
	if n := len(b.queues["h2"]); n != 0 {
		t.Fatalf("sends to dead member queued: %d", n)
	}
	if st := b.Stats(); st.LostToKill != 2 || st.Partitioned != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestBusDeterministicWithSeed(t *testing.T) {
	run := func() []Message {
		plan := faults.NewMsgPlan(99,
			faults.MsgRule{Match: faults.MsgMatch{}, Fault: faults.MsgFault{Drop: true}, Prob: 0.3})
		b := New(plan)
		for i := 0; i < 40; i++ {
			b.Send(time.Duration(i)*time.Millisecond, MsgLeaseRenew, "h0", "h1", i)
		}
		return b.Receive(time.Second, "h1")
	}
	a, c := run(), run()
	if len(a) != len(c) {
		t.Fatalf("lengths diverge: %d vs %d", len(a), len(c))
	}
	for i := range a {
		if a[i].Seq != c[i].Seq || a[i].DeliverAt != c[i].DeliverAt {
			t.Fatalf("message %d diverges: %+v vs %+v", i, a[i], c[i])
		}
	}
	if len(a) == 0 || len(a) == 40 {
		t.Fatalf("prob drop fired %d/40 deliveries; want a mix", len(a))
	}
}

// A killed member must be revivable: Kill used to set b.dead[to] with no
// path that ever cleared it, so a restarted member stayed unreachable
// forever. Revive reopens delivery (under a fresh inbound queue — the old
// life's in-flight traffic was lost at the kill, not resurrected).
func TestBusKillReviveRedelivers(t *testing.T) {
	b := New(nil)

	b.Send(0, MsgLeaseRenew, "h0", "h1", 1)
	b.Kill("h1")
	if got := b.Receive(time.Second, "h1"); got != nil {
		t.Fatalf("dead member received: %+v", got)
	}
	b.Send(time.Second, MsgLeaseRenew, "h0", "h1", 2) // lost: still dead

	b.Revive("h1")
	b.Send(2*time.Second, MsgLeaseRenew, "h0", "h1", 3)
	got := b.Receive(3*time.Second, "h1")
	if len(got) != 1 || got[0].Body.(int) != 3 {
		t.Fatalf("post-revive delivery wrong (old-life traffic must stay lost): %+v", got)
	}
	if st := b.Stats(); st.LostToKill != 2 || st.Delivered != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// A message to a killed member never existed on the wire: it must not burn
// a sequence number or count as Sent — only LostToKill moves. (Send used to
// increment both before the dead-member check, so kill-heavy runs reported
// inflated wire traffic and gappy sequences.)
func TestBusSendStatsAccounting(t *testing.T) {
	b := New(nil)
	b.Kill("h2")

	b.Send(0, MsgLeaseRenew, "h0", "h1", 1)
	b.Send(0, MsgLeaseRenew, "h0", "h2", 2) // to dead: no wire traffic
	b.Send(0, MsgLeaseRenew, "h0", "h1", 3)

	got := b.Receive(time.Second, "h1")
	if len(got) != 2 {
		t.Fatalf("live deliveries wrong: %+v", got)
	}
	if got[1].Seq != got[0].Seq+1 {
		t.Fatalf("dead-destined send burned a sequence number: seqs %d, %d", got[0].Seq, got[1].Seq)
	}
	st := b.Stats()
	if st.Sent != 2 || st.Delivered != 2 || st.LostToKill != 1 {
		t.Fatalf("dead-destined send must count only under LostToKill: %+v", st)
	}
}
