package cluster

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"gyan/internal/faults"
	"gyan/internal/transport"
)

// The transport chaos suite: kill -9 between every two-phase protocol
// boundary, crossed with every message-level fault class, plus the focused
// membership and anti-entropy invariants the protocol must pin:
//
//   - kill between prepare/accept/retire x drop/duplicate/reorder/delay
//     never loses or double-runs a key, and seniority survives,
//   - a slow-but-alive member whose renewals are delayed below the TTL is
//     never evicted,
//   - a thief that never answers drives the victim through jittered retries
//     into a journaled abort and a local requeue,
//   - an orphaned prepare (victim dead after detach, thief never heard)
//     is found and repaired by the online anti-entropy sweep, not by a
//     post-mortem replay.

// The suite's windows into the failure detector and the two-phase protocol.

// Handlers returns the member IDs in boot order (dead ones included).
func (s *Sim) Handlers() []string { return append([]string(nil), s.nodes[0].cfg.Members...) }

// DeadSeenBy reports which peers `member` has declared dead (lease lapsed
// or learned via a rebalance-claim) — the test window into the failure
// detector.
func (s *Sim) DeadSeenBy(member string) []string {
	i := slices.Index(s.Handlers(), member)
	if i < 0 {
		return nil
	}
	return s.nodes[i].TransportStatus().Members[i].DeadSeen
}

// StealPhases reports every in-flight two-phase transfer across the live
// members, keyed "victim/xfer". The victim's word ("prepared", "aborting")
// outranks the thief's "accepted"; a retired-and-acked transfer disappears.
func (s *Sim) StealPhases() map[string]string {
	out := make(map[string]string)
	for _, n := range s.live() {
		for k, phase := range n.StealPhases() {
			if _, own := out[k]; !own || phase != "accepted" {
				out[k] = phase
			}
		}
	}
	return out
}

// StealPhases reports this member's in-flight two-phase transfers, keyed
// "victim/xfer": "prepared" or "aborting" for its own outbound transfers,
// "accepted" for inbound ones whose retire has not landed.
func (n *Node) StealPhases() map[string]string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]string)
	for k := range n.proto.unretiredIn {
		out[k.victim+"/"+strconv.FormatUint(k.xfer, 10)] = "accepted"
	}
	for x, o := range n.proto.out {
		phase := "prepared"
		if o.aborting {
			phase = "aborting"
		}
		out[n.id+"/"+strconv.FormatUint(x, 10)] = phase
	}
	return out
}

// pinKeys submits n jobs pinned into the given handler's stripes and
// returns the keys.
func pinKeys(t *testing.T, c *Sim, handler, scale string, n int) []uint64 {
	t.Helper()
	owned := stripesOf(c, handler)
	if len(owned) == 0 {
		t.Fatalf("%s owns no stripes", handler)
	}
	keys := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		key := uint64(owned[i%len(owned)]) + uint64(DefaultStripes*(i/len(owned)))
		keys = append(keys, key)
		if _, err := c.Submit("racon", map[string]string{"scale": scale}, "reads",
			SubmitOptions{User: "chaos", Key: &key}); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// drain steps the cluster until the engines and the protocol settle.
func drain(t *testing.T, c *Sim, horizon time.Duration) {
	t.Helper()
	drainDead(t, c, "", horizon)
}

// drainDead steps the cluster until it settles AND every survivor has
// declared the killed member dead. The second condition matters: right
// after a kill the cluster can look idle for the whole lease-TTL window
// (the dead member took its backlog with it), and the requeue work only
// appears once the failure detector fires.
func drainDead(t *testing.T, c *Sim, killed string, horizon time.Duration) {
	t.Helper()
	for {
		busy := c.Step()
		if !busy && (killed == "" || allSeeDead(c, killed)) {
			return
		}
		if c.Now() > horizon {
			t.Fatalf("cluster did not drain within %v", horizon)
		}
	}
}

func allSeeDead(c *Sim, dead string) bool {
	for _, id := range c.Handlers() {
		if id == dead {
			continue
		}
		saw := false
		for _, d := range c.DeadSeenBy(id) {
			if d == dead {
				saw = true
			}
		}
		if !saw {
			return false
		}
	}
	return true
}

// auditExactlyOnce runs the cross-journal audit and asserts the chaos
// invariants: every key durable and terminal, none lost, none double-run,
// multi-handler starts only explained by the dead member, and adopted jobs
// starting in submission order on every survivor.
func auditExactlyOnce(t *testing.T, c *Sim, total int, dead string) *Audit {
	t.Helper()
	if err := c.SyncJournals(); err != nil {
		t.Fatal(err)
	}
	audit, err := AuditJournals(c.JournalDirs())
	if err != nil {
		t.Fatal(err)
	}
	if len(audit.Keys) != total {
		t.Fatalf("audit saw %d keys, want %d", len(audit.Keys), total)
	}
	if lost := audit.Lost(); len(lost) != 0 {
		t.Fatalf("lost keys: %v", lost)
	}
	if dbl := audit.Doubles(); len(dbl) != 0 {
		t.Fatalf("double executions: %v", dbl)
	}
	for key, kt := range audit.Keys {
		if len(kt.StartedOn) > 1 {
			hasDead := false
			for _, h := range kt.StartedOn {
				if h == dead {
					hasDead = true
				}
			}
			if !hasDead {
				t.Fatalf("key %d started on %v without the dead member among them", key, kt.StartedOn)
			}
		}
	}
	if dead != "" {
		for _, survivor := range c.Handlers() {
			if survivor == dead {
				continue
			}
			type adopted struct {
				key                uint64
				submitted, started time.Duration
			}
			var got []adopted
			for key, kt := range audit.Keys {
				if kt.AdoptedFrom[survivor] != dead {
					continue
				}
				starts := kt.Starts[survivor]
				if len(starts) == 0 {
					continue
				}
				got = append(got, adopted{key, kt.Submitted, starts[len(starts)-1]})
			}
			sort.Slice(got, func(i, j int) bool { return got[i].started < got[j].started })
			for i := 1; i < len(got); i++ {
				if got[i].submitted < got[i-1].submitted {
					t.Fatalf("seniority violated on %s: key %d (submitted %v) started after key %d (submitted %v)",
						survivor, got[i-1].key, got[i-1].submitted, got[i].key, got[i].submitted)
				}
			}
		}
	}
	dumpAudit(t, audit, total, dead)
	return audit
}

// dumpAudit writes the audit outcome as a JSON artifact when GYAN_AUDIT_DIR
// is set (the CI transport job sets it and uploads the directory), so a
// passing run still leaves an inspectable exactly-once record per scenario.
func dumpAudit(t *testing.T, audit *Audit, total int, dead string) {
	t.Helper()
	dir := os.Getenv("GYAN_AUDIT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("audit artifact dir: %v", err)
		return
	}
	payload := map[string]any{
		"test":             t.Name(),
		"keys":             total,
		"dead_member":      dead,
		"lost":             audit.Lost(),
		"doubles":          audit.Doubles(),
		"torn_tail_counts": audit.TornTailCounts,
		"claims":           audit.Claims,
		"records":          audit.Records,
	}
	b, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		t.Logf("audit artifact marshal: %v", err)
		return
	}
	name := strings.ReplaceAll(t.Name(), "/", "_") + ".json"
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		t.Logf("audit artifact write: %v", err)
	}
}

// TestTransportChaosKillBetweenPhases is the acceptance matrix: a kill -9
// lands between each protocol phase boundary while that phase's message is
// under an injected fault. "After prepare" kills the victim with the
// prepare journaled but no ack; "after accept" kills the thief with the
// accept durable but the victim not yet retired; "after retire" kills the
// thief with the retire journaled on the victim but never learned. Under
// all twelve combinations the audit must hold exactly-once.
func TestTransportChaosKillBetweenPhases(t *testing.T) {
	modes := []struct {
		name  string
		fault faults.MsgFault
	}{
		{"drop", faults.MsgFault{Drop: true}},
		{"duplicate", faults.MsgFault{Duplicate: true}},
		{"reorder", faults.MsgFault{Reorder: true}},
		{"delay", faults.MsgFault{Delay: 600 * time.Millisecond}},
	}
	phases := []struct {
		name string
		msg  string
		// cond inspects the protocol snapshot and returns the member to
		// kill, or "" if the boundary has not been reached yet.
		cond func(ts TransportStatus, fired int) string
	}{
		{"after-prepare", transport.MsgStealPrepare,
			// The victim holds an unacked outbound prepare and no thief has
			// accepted anything yet: kill the victim.
			func(ts TransportStatus, fired int) string {
				victim := ""
				for _, m := range ts.Members {
					if m.UnretiredIn > 0 {
						return ""
					}
					if m.OutXfers > 0 && victim == "" {
						victim = m.ID
					}
				}
				return victim
			}},
		{"after-accept", transport.MsgStealAccept,
			// A thief has journaled the accept while the victim still holds
			// the outbound entry (the accept is in flight or faulted): kill
			// the thief.
			func(ts TransportStatus, fired int) string {
				out := false
				thief := ""
				for _, m := range ts.Members {
					if m.OutXfers > 0 {
						out = true
					}
					if m.UnretiredIn > 0 && thief == "" {
						thief = m.ID
					}
				}
				if out && thief != "" {
					return thief
				}
				return ""
			}},
		{"after-retire", transport.MsgStealRetire,
			// The victim has retired (a retire message fired through the
			// fault plan) but the thief has not heard: kill the thief.
			func(ts TransportStatus, fired int) string {
				if fired == 0 {
					return ""
				}
				for _, m := range ts.Members {
					if m.UnretiredIn > 0 {
						return m.ID
					}
				}
				return ""
			}},
	}
	// cell runs one phase x fault combination to drain and returns its
	// audit and final virtual time.
	cell := func(t *testing.T, pi, mi int) (*Audit, time.Duration) {
		ph, md := phases[pi], modes[mi]
		plan := faults.NewMsgPlan(uint64(100+10*pi+mi),
			faults.MsgRule{Match: faults.MsgMatch{Type: ph.msg}, Fault: md.fault, Count: 2})
		c := newTestCluster(t, 3, func(cfg *SimConfig) {
			cfg.DisableDurableSubmits = false
			cfg.stealThreshold = 2
			cfg.Seed = uint64(1 + pi*4 + mi)
			cfg.msgFaults = plan
		})
		const jobs = 18
		keys := pinKeys(t, c, "h0", "0.004", jobs)

		killed := ""
		for step := 0; killed == ""; step++ {
			if !c.Step() {
				t.Fatal("cluster drained before the phase boundary was reached")
			}
			if step > 2000 {
				t.Fatalf("phase %s never reached", ph.name)
			}
			if target := ph.cond(c.TransportStatus(), plan.MsgFired()); target != "" {
				if err := c.KillHandler(target, []byte{0xde, 0xad, 0x00, 0x0f}); err != nil {
					t.Fatal(err)
				}
				killed = target
			}
		}
		drainDead(t, c, killed, 6*time.Hour)

		// The kill was detected by lease expiry on every survivor and
		// the dead stripes were claimed.
		for _, id := range c.Handlers() {
			if id == killed {
				continue
			}
			deadSeen := c.DeadSeenBy(id)
			if len(deadSeen) != 1 || deadSeen[0] != killed {
				t.Fatalf("%s dead-set = %v, want [%s]", id, deadSeen, killed)
			}
		}
		assertStripesClaimed(t, c, killed)
		for _, key := range keys {
			ref, job, ok := c.Lookup(key)
			if !ok || job.State != "ok" {
				t.Fatalf("key %d did not complete (on %s): %+v", key, ref.Handler, job)
			}
		}
		audit := auditExactlyOnce(t, c, jobs, killed)
		if audit.TornTailCounts[killed] == 0 {
			t.Fatalf("killed member's torn tail not observed: %v", audit.TornTailCounts)
		}
		return audit, c.Now()
	}
	for pi, ph := range phases {
		for mi, md := range modes {
			t.Run(ph.name+"/"+md.name, func(t *testing.T) { cell(t, pi, mi) })
		}
	}
	// Sim determinism: N members with nothing shared but the bus still make
	// one seed + one fault plan one history — the same per-key start trail
	// on the same members at the same virtual times, ending at the same
	// instant.
	t.Run("after-accept/duplicate/replayed", func(t *testing.T) {
		a1, end1 := cell(t, 1, 1)
		a2, end2 := cell(t, 1, 1)
		if end1 != end2 {
			t.Fatalf("same seed and plan ended at %v, then at %v", end1, end2)
		}
		for key, k1 := range a1.Keys {
			k2 := a2.Keys[key]
			if k2 == nil || !reflect.DeepEqual(k1.StartedOn, k2.StartedOn) || !reflect.DeepEqual(k1.Starts, k2.Starts) {
				t.Fatalf("key %d diverged between identical runs: %+v vs %+v", key, k1, k2)
			}
		}
	})
}

// assertStripesClaimed checks that a dead member's stripes were all taken
// over: no survivor's own ring view still lists it, and the stitched
// partition Submit routes by has no unowned stripe left.
func assertStripesClaimed(t *testing.T, c *Sim, dead string) {
	t.Helper()
	for _, id := range c.Handlers() {
		if id == dead {
			continue
		}
		for s, o := range c.Node(id).Status().Partition {
			if o == dead {
				t.Fatalf("%s's view still gives stripe %d to dead %s", id, s, dead)
			}
		}
	}
	for s, o := range c.Status().Partition {
		if o == "" || o == dead {
			t.Fatalf("stripe %d unclaimed after failover (owner %q)", s, o)
		}
	}
}

// TestSlowButAliveNeverEvicted pins the failure detector's other half: a
// member whose lease renewals are all delayed — but by less than the
// membership TTL — must never be declared dead, because the lease extends
// from the renewal's send time, not its (late) delivery time.
func TestSlowButAliveNeverEvicted(t *testing.T) {
	plan := faults.NewMsgPlan(3,
		faults.MsgRule{
			Match: faults.MsgMatch{Type: transport.MsgLeaseRenew, From: "h1"},
			// Two full ticks of extra latency on every renewal h1 sends;
			// the default TTL is six ticks, so h1 is slow but inside it.
			Fault: faults.MsgFault{Delay: 500 * time.Millisecond},
		})
	c := newTestCluster(t, 2, func(cfg *SimConfig) {
		cfg.Seed = 11
		cfg.msgFaults = plan
	})
	const jobs = 24
	for i := 0; i < jobs; i++ {
		if _, err := c.Submit("racon", map[string]string{"scale": "0.002"}, "reads",
			SubmitOptions{User: "slow", Delay: time.Duration(i) * 100 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(time.Hour)
	ts := c.TransportStatus()
	if ts.Bus.Delayed == 0 {
		t.Fatal("no renewal was actually delayed — the fault never fired")
	}
	for _, m := range ts.Members {
		if !m.Alive {
			t.Fatalf("member %s not alive", m.ID)
		}
		if len(m.DeadSeen) != 0 {
			t.Fatalf("member %s evicted peers %v despite sub-TTL delays", m.ID, m.DeadSeen)
		}
	}
	seen := map[string]bool{}
	for _, o := range c.Status().Partition {
		seen[o] = true
	}
	if !seen["h0"] || !seen["h1"] {
		t.Fatalf("partition lost a live member: %v", seen)
	}
	for key := uint64(0); key < jobs; key++ {
		if _, job, ok := c.Lookup(key); !ok || job.State != "ok" {
			t.Fatalf("key %d did not complete: %+v", key, job)
		}
	}
}

// TestStealRetryThenAbortRequeues starves the two-phase handshake: every
// steal-prepare to the thief is dropped, so the victim walks its jittered
// backoff schedule, exhausts the retry budget, journals the abort, and
// requeues the detached jobs locally. The workload must complete entirely
// on the victim with zero steals.
func TestStealRetryThenAbortRequeues(t *testing.T) {
	plan := faults.NewMsgPlan(5,
		faults.MsgRule{
			Match: faults.MsgMatch{Type: transport.MsgStealPrepare},
			Fault: faults.MsgFault{Drop: true},
		})
	c := newTestCluster(t, 2, func(cfg *SimConfig) {
		cfg.Seed = 5
		cfg.stealThreshold = 3
		cfg.msgFaults = plan
	})
	const jobs = 7
	keys := pinKeys(t, c, "h0", "0.004", jobs)
	c.Run(2 * time.Hour)

	st := c.Status()
	if st.Steals != 0 {
		t.Fatalf("steals = %d, want 0 (every prepare was dropped)", st.Steals)
	}
	if st.Transport.Dropped == 0 {
		t.Fatal("no prepare was dropped — the fault never fired")
	}
	for _, key := range keys {
		ref, job, ok := c.Lookup(key)
		if !ok || job.State != "ok" {
			t.Fatalf("key %d did not complete: %+v", key, job)
		}
		if ref.Handler != "h0" {
			t.Fatalf("key %d ran on %s, want h0 (aborted transfers requeue locally)", key, ref.Handler)
		}
	}
	if phases := c.StealPhases(); len(phases) != 0 {
		t.Fatalf("unresolved transfers at drain: %v", phases)
	}
	var sb strings.Builder
	if err := c.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"gyan_cluster_steal_retries_total{victim=\"h0\"}",
		"gyan_cluster_steal_aborts_total{victim=\"h0\"",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestOrphanedPrepareRepairedByAntiEntropy builds the orphaned-prepare
// scenario the online sweep exists for: the victim journals prepares the
// thief never hears (all dropped), then dies. The claimer that inherits an
// orphaned key cannot rule on it from the dead journal alone — it parks the
// trail and asks the tentative thief through the anti-entropy digest. The
// thief's "never accepted" verdict drives the requeue, live, within a
// bounded number of sweep rounds.
func TestOrphanedPrepareRepairedByAntiEntropy(t *testing.T) {
	plan := faults.NewMsgPlan(9,
		faults.MsgRule{
			Match: faults.MsgMatch{Type: transport.MsgStealPrepare, From: "h0"},
			Fault: faults.MsgFault{Drop: true},
		})
	c := newTestCluster(t, 3, func(cfg *SimConfig) {
		cfg.DisableDurableSubmits = false
		cfg.stealThreshold = 2
		cfg.Seed = 9
		cfg.msgFaults = plan
	})
	const jobs = 16
	keys := pinKeys(t, c, "h0", "0.006", jobs)

	// Step until h0 holds outbound prepares the thief never received, then
	// kill it: every prepared key is now an orphan only the thief can rule
	// on.
	killedAt := time.Duration(0)
	for killedAt == 0 {
		if !c.Step() {
			t.Fatal("drained before a prepare was in flight")
		}
		if c.Now() > time.Hour {
			t.Fatal("no steal prepare ever happened")
		}
		for _, m := range c.TransportStatus().Members {
			if m.ID == "h0" && m.OutXfers > 0 {
				if err := c.KillHandler("h0", []byte{0x0b, 0xad}); err != nil {
					t.Fatal(err)
				}
				killedAt = c.Now()
			}
		}
	}

	// Drive to drain, watching the parked-orphan gauge: it must go positive
	// (a claimer deferred to the sweep) and come back to zero (the sweep
	// repaired it) — all while the cluster is live.
	parkedSeen := false
	for {
		busy := c.Step()
		for _, m := range c.TransportStatus().Members {
			if m.PendingDead > 0 {
				parkedSeen = true
			}
		}
		if !busy && allSeeDead(c, "h0") {
			break
		}
		if c.Now() > 6*time.Hour {
			t.Fatal("cluster did not drain")
		}
	}
	if !parkedSeen {
		t.Fatal("no orphaned prepare was ever parked for anti-entropy (scenario never materialized)")
	}
	repairedBy := c.Now() - killedAt
	if repairedBy > 2*time.Minute {
		t.Fatalf("anti-entropy took %v after the kill, want bounded rounds", repairedBy)
	}
	for _, m := range c.TransportStatus().Members {
		if m.PendingDead != 0 {
			t.Fatalf("member %s still has %d parked orphans after drain", m.ID, m.PendingDead)
		}
	}
	for _, key := range keys {
		_, job, ok := c.Lookup(key)
		if !ok || job.State != "ok" {
			t.Fatalf("key %d did not complete: %+v", key, job)
		}
	}
	auditExactlyOnce(t, c, jobs, "h0")
	var sb strings.Builder
	if err := c.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "kind=\"orphaned_prepare\"") {
		t.Fatalf("exposition missing the orphaned_prepare repair counter:\n%s", out)
	}
}

// TestTransportChaosRaceHammer drives concurrent submitters and read-side
// scrapers against a cluster whose steal traffic runs through a lossy,
// slow, duplicating network — the -race half of the CI transport job. The
// skewed pinner keeps two-phase transfers (and their retries and repairs)
// in flight while Status/TransportStatus/StealPhases/metrics race the
// protocol pass; the audit at the end must still balance.
func TestTransportChaosRaceHammer(t *testing.T) {
	plan := faults.NewMsgPlan(21,
		faults.MsgRule{Match: faults.MsgMatch{Type: transport.MsgStealPrepare},
			Fault: faults.MsgFault{Drop: true}, Prob: 0.25},
		faults.MsgRule{Match: faults.MsgMatch{Type: transport.MsgStealAccept},
			Fault: faults.MsgFault{Duplicate: true}, Prob: 0.3},
		faults.MsgRule{Match: faults.MsgMatch{Type: transport.MsgStealRetire},
			Fault: faults.MsgFault{Delay: 600 * time.Millisecond}, Prob: 0.3},
		faults.MsgRule{Match: faults.MsgMatch{Type: transport.MsgAEDigest},
			Fault: faults.MsgFault{Reorder: true}, Prob: 0.2},
	)
	c := newTestCluster(t, 3, func(cfg *SimConfig) {
		cfg.stealThreshold = 1
		cfg.Seed = 21
		cfg.msgFaults = plan
	})
	owned := stripesOf(c, "h0")
	if len(owned) == 0 {
		t.Fatal("h0 owns no stripes")
	}

	const pinned = 60
	done := make(chan struct{})
	go func() {
		defer close(done)
		top := uint64(1) << 60
		for i := 0; i < pinned; i++ {
			key := top - uint64(i)*uint64(DefaultStripes) + uint64(owned[i%len(owned)])
			if _, err := c.Submit("racon", map[string]string{"scale": "0.004"}, "reads",
				SubmitOptions{User: "pinner", Key: &key}); err != nil {
				t.Errorf("pinned submit %d: %v", i, err)
				return
			}
		}
	}()
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		var sb strings.Builder
		for i := 0; i < 150; i++ {
			c.TransportStatus()
			c.StealPhases()
			c.Status()
			sb.Reset()
			_ = c.Registry().WritePrometheus(&sb)
		}
	}()

	settled := 0
	for {
		busy := c.Step()
		select {
		case <-done:
			if !busy {
				settled++
			}
		default:
		}
		if settled > 2 {
			break
		}
		if c.Now() > 12*time.Hour {
			t.Fatal("hammer did not drain")
		}
	}
	<-scraped
	if t.Failed() {
		t.FailNow()
	}

	st := c.Status()
	if st.Steals == 0 {
		t.Fatal("skewed hammer produced no steals under message faults")
	}
	if st.Transport.Dropped == 0 && st.Transport.Duplicated == 0 && st.Transport.Delayed == 0 {
		t.Fatalf("no message fault ever fired: %+v", st.Transport)
	}
	if phases := c.StealPhases(); len(phases) != 0 {
		t.Fatalf("unresolved transfers at drain: %v", phases)
	}
	audit := auditExactlyOnce(t, c, pinned, "")
	for key, kt := range audit.Keys {
		if len(kt.StartedOn) > 1 {
			t.Fatalf("key %d double-started on %v with no member dead", key, kt.StartedOn)
		}
	}
}

// TestLeaseExpiryDetectsKillWithoutCoordinator pins the detection path in
// isolation: an idle cluster, one member shot, no coordinator assist — the
// survivors must notice within the TTL plus a small sweep margin, purely
// from missed renewals, and journal claims for the dead stripes.
func TestLeaseExpiryDetectsKillWithoutCoordinator(t *testing.T) {
	c := newTestCluster(t, 3, func(cfg *SimConfig) {
		cfg.DisableDurableSubmits = false
		cfg.Seed = 17
	})
	// Let the lease table warm up.
	for i := 0; i < 4; i++ {
		c.Step()
	}
	killAt := c.Now()
	if err := c.KillHandler("h2", nil); err != nil {
		t.Fatal(err)
	}
	ttl, tick := c.nodes[0].cfg.MemberTTL, c.tick
	for {
		c.Step()
		seen0, seen1 := c.DeadSeenBy("h0"), c.DeadSeenBy("h1")
		if len(seen0) == 1 && seen0[0] == "h2" && len(seen1) == 1 && seen1[0] == "h2" {
			break
		}
		if c.Now()-killAt > ttl+4*tick {
			t.Fatalf("death not detected within TTL+margin (%v elapsed)", c.Now()-killAt)
		}
	}
	if elapsed := c.Now() - killAt; elapsed < ttl-tick {
		t.Fatalf("death detected after %v, before the lease could have lapsed (TTL %v)", elapsed, ttl)
	}
	drain(t, c, time.Hour)
	assertStripesClaimed(t, c, "h2")
	if err := c.SyncJournals(); err != nil {
		t.Fatal(err)
	}
	audit, err := AuditJournals(c.JournalDirs())
	if err != nil {
		t.Fatal(err)
	}
	claimers := map[string]bool{}
	for _, cl := range audit.Claims {
		if cl.Dead != "h2" {
			t.Fatalf("claim against unexpected member: %+v", cl)
		}
		claimers[cl.Claimer] = true
	}
	if !claimers["h0"] || !claimers["h1"] {
		t.Fatalf("claims came from %v, want both survivors", claimers)
	}
}

// TestStaggeredDetectionDivergentViews makes the survivors notice a real
// death at different ticks — h1 stops hearing h2 three ticks before the kill
// (well under MemberTTL, so no false death) and every rebalance-claim
// addressed to h0 is dropped, so h0 learns only from its own, later, lease
// lapse. While h1 has declared h2 dead and h0 has not, their ring views
// differ: a submission pinned to one of h2's old stripes is journaled by at
// most one member, and is retryable verbatim when neither owns it yet. After
// drain the views are equal again and the audit balances.
func TestStaggeredDetectionDivergentViews(t *testing.T) {
	plan := faults.NewMsgPlan(31, faults.MsgRule{
		Match: faults.MsgMatch{Type: transport.MsgClaim, To: "h0"},
		Fault: faults.MsgFault{Drop: true},
	})
	c := newTestCluster(t, 3, func(cfg *SimConfig) {
		cfg.DisableDurableSubmits = false
		cfg.Seed = 31
		cfg.msgFaults = plan
	})
	total := len(pinKeys(t, c, "h2", "0.004", 6))
	orphaned := stripesOf(c, "h2")
	for i := 0; i < 4; i++ {
		c.Step() // let the lease tables warm up
	}
	plan.Cut("h2", "h1")
	for i := 0; i < 3; i++ {
		c.Step()
	}
	if err := c.KillHandler("h2", []byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	for len(c.DeadSeenBy("h1")) == 0 {
		c.Step()
		if c.Now() > time.Minute {
			t.Fatal("h1 never declared h2 dead")
		}
	}
	if seen := c.DeadSeenBy("h0"); len(seen) != 0 {
		t.Fatalf("h0 declared %v in the same tick as h1: detection was not staggered", seen)
	}

	// The window: two live members, two different rings.
	owns := func(member, id string) (n int) {
		for _, o := range c.Node(member).Status().Partition {
			if o == id {
				n++
			}
		}
		return n
	}
	if owns("h1", "h2") != 0 || owns("h0", "h2") != len(orphaned) {
		t.Fatalf("views in the window: h1 gives h2 %d stripes (want 0), h0 gives it %d (want %d)",
			owns("h1", "h2"), owns("h0", "h2"), len(orphaned))
	}
	var retry []uint64
	for _, s := range orphaned {
		key := uint64(s) + 100*DefaultStripes
		accepted := 0
		for _, id := range []string{"h0", "h1"} {
			_, err := c.Node(id).Submit("racon", map[string]string{"scale": "0.002"}, "reads",
				SubmitOptions{User: "window", Key: &key})
			if err == nil {
				accepted++
			} else if !errors.Is(err, errNotOwner) {
				t.Fatalf("%s refused key %d for the wrong reason: %v", id, key, err)
			}
		}
		if accepted > 1 {
			t.Fatalf("key %d (stripe %d) journaled by %d members", key, s, accepted)
		}
		if accepted == 0 {
			if _, err := c.Submit("racon", nil, "reads", SubmitOptions{Key: &key}); err == nil {
				t.Fatalf("front door placed key %d although no live member owns stripe %d yet", key, s)
			}
			retry = append(retry, key)
		}
		total++
	}
	if len(retry) == 0 || len(retry) == len(orphaned) {
		t.Fatalf("%d of %d orphaned stripes unowned in the window; want some claimed by h1 and some awaiting h0",
			len(retry), len(orphaned))
	}

	drainDead(t, c, "h2", time.Hour)
	for _, key := range retry {
		if _, err := c.Submit("racon", map[string]string{"scale": "0.002"}, "reads",
			SubmitOptions{User: "window", Key: &key}); err != nil {
			t.Fatalf("verbatim retry of key %d after convergence: %v", key, err)
		}
	}
	drain(t, c, 2*time.Hour)
	if p0, p1 := c.Node("h0").Status().Partition, c.Node("h1").Status().Partition; !reflect.DeepEqual(p0, p1) {
		t.Fatalf("views did not converge:\nh0 %v\nh1 %v", p0, p1)
	}
	assertStripesClaimed(t, c, "h2")
	for _, key := range c.Keys() {
		if ref, job, _ := c.Lookup(key); job.State != "ok" {
			t.Fatalf("key %d on %s: state %s (%s)", key, ref.Handler, job.State, job.Info)
		}
	}
	auditExactlyOnce(t, c, total, "h2")
}

// obstructJournal plants a DIRECTORY carrying a segment's name under a
// member's journal, so ReplayAll's ReadFile fails with EISDIR (even when the
// tests run as root), and returns the obstruction's path.
func obstructJournal(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "shard-00", "wal-99999999.seg")
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRejoinRefusesUnreadableJournal: a restart-rejoin that cannot replay
// its own journal must not boot with the job-ID allocator at zero.
func TestRejoinRefusesUnreadableJournal(t *testing.T) {
	root := t.TempDir()
	obstructJournal(t, filepath.Join(root, "h0"))
	n, err := New(Config{
		Members: []string{"h0", "h1"}, Local: []string{"h0"}, Incarnation: 2, Dir: root,
		Bus: transport.New(nil), WallClock: func() time.Duration { return 0 },
	})
	if err == nil {
		n.Close()
		t.Fatal("rejoin booted over an unreadable journal")
	}
}

// TestDeadReplayErrorDefersDeclaration: a survivor that cannot replay a
// lapsed peer's journal must not cache an empty archive — it counts the
// error, leaves the peer undeclared with its lease entry in place, retries
// every detection pass, and requeues the peer's jobs once the journal reads.
func TestDeadReplayErrorDefersDeclaration(t *testing.T) {
	c := newTestCluster(t, 3, func(cfg *SimConfig) {
		cfg.DisableDurableSubmits = false
		cfg.Seed = 23
	})
	const jobs = 8
	keys := pinKeys(t, c, "h2", "0.004", jobs)
	for i := 0; i < 4; i++ {
		c.Step()
	}
	if err := c.KillHandler("h2", []byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	obstruction := obstructJournal(t, c.JournalDirs()["h2"])
	ttl := c.nodes[0].cfg.MemberTTL
	for deadline := c.Now() + 2*ttl; c.Now() < deadline; {
		c.Step()
	}
	var sb strings.Builder
	if err := c.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.TransportStatus().Members {
		if m.ID == "h2" {
			continue
		}
		if len(m.DeadSeen) != 0 {
			t.Fatalf("%s declared %v dead over an unreadable journal", m.ID, m.DeadSeen)
		}
		if left, ok := m.Leases["h2"]; !ok || left > 0 {
			t.Fatalf("%s's lease entry for h2: %v (present %v), want kept and lapsed", m.ID, left, ok)
		}
		want := `gyan_cluster_dead_replay_errors_total{member="` + m.ID + `",dead="h2"}`
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %s:\n%s", want, sb.String())
		}
	}
	if err := os.Remove(obstruction); err != nil {
		t.Fatal(err)
	}
	drainDead(t, c, "h2", time.Hour)
	assertStripesClaimed(t, c, "h2")
	for _, key := range keys {
		if ref, job, ok := c.Lookup(key); !ok || job.State != "ok" {
			t.Fatalf("key %d did not complete (on %s): %+v", key, ref.Handler, job)
		}
	}
	auditExactlyOnce(t, c, jobs, "h2")
}
