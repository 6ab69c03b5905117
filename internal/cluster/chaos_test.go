package cluster

import (
	"sort"
	"testing"
	"time"
)

// TestClusterChaosKillMidWorkload is the PR-3 crash-recovery invariant set,
// cluster-wide: three handlers serve a mixed arrival stream, one dies kill
// -9 style mid-workload (buffered journal tail dropped, torn garbage bytes
// on disk), and after the survivors drain the rebalanced work the
// cross-journal audit must show
//
//   - zero lost jobs: every acked submission reaches a durable terminal
//     state somewhere,
//   - zero double executions: no key completes ok in two journals,
//   - re-starts only explained by the kill: a key that started on two
//     handlers must count the dead one among them,
//   - seniority preserved: on each survivor, adopted jobs start in their
//     original submission order,
//   - rebalanced, not wholesale-adopted: both survivors detect the death
//     by lease expiry, journal rebalance-claims for disjoint stripe sets,
//     and each receives a share of the dead partition.
//
// KillHandler is now a pure kill (no coordinator-side rebalance), so
// submissions aimed at the dead partition fail until the survivors' claims
// land; the submit loop retries them on later ticks like a real client.
func TestClusterChaosKillMidWorkload(t *testing.T) {
	cfg := func(cfg *SimConfig) {
		cfg.DisableDurableSubmits = false
		cfg.StealThreshold = 2
	}
	c := newTestCluster(t, 3, cfg)

	const total = 240
	const killAfter = 96 // jobs submitted before the kill lands
	arrival := func(i int) time.Duration { return time.Duration(i) * 40 * time.Millisecond }

	killed := false
	submitted := 0
	for {
		for submitted < total && arrival(submitted) <= c.Now()+c.tick {
			scale := "0.002"
			if submitted%3 == 0 {
				scale = "0.004"
			}
			if _, err := c.Submit("racon", map[string]string{"scale": scale}, "reads",
				SubmitOptions{User: "chaos"}); err != nil {
				break // dead partition mid-failover: retry next tick
			}
			submitted++
		}
		if !killed && submitted >= killAfter {
			if err := c.KillHandler("h1", []byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe}); err != nil {
				t.Fatal(err)
			}
			killed = true
		}
		if busy := c.Step(); !busy && submitted >= total {
			break
		}
		if c.Now() > 6*time.Hour {
			t.Fatal("workload did not drain")
		}
	}
	if !killed {
		t.Fatal("kill never happened")
	}

	// Both survivors detected the death with no coordinator assist and took
	// a share of the dead partition.
	for _, survivor := range []string{"h0", "h2"} {
		deadSeen := c.DeadSeenBy(survivor)
		if len(deadSeen) != 1 || deadSeen[0] != "h1" {
			t.Fatalf("%s dead-set = %v, want [h1]", survivor, deadSeen)
		}
	}
	st := c.Status()
	for _, hs := range st.Handlers {
		if hs.ID != "h1" && hs.RebalancedIn == 0 {
			t.Fatalf("dead partition adopted wholesale: %s rebalanced in nothing: %+v",
				hs.ID, st.Handlers)
		}
	}
	assertStripesClaimed(t, c, "h1")

	// Every routed job must be terminal at its current home.
	for key := uint64(0); key < total; key++ {
		ref, job, ok := c.Lookup(key)
		if !ok {
			t.Fatalf("key %d untracked", key)
		}
		if job.State != "ok" {
			t.Fatalf("key %d on %s: state=%s info=%q", key, ref.Handler, job.State, job.Info)
		}
	}

	if err := c.SyncJournals(); err != nil {
		t.Fatal(err)
	}
	audit, err := AuditJournals(c.JournalDirs())
	if err != nil {
		t.Fatal(err)
	}
	if audit.TornTailCounts["h1"] == 0 {
		t.Fatalf("dead handler's torn tail not observed: %v", audit.TornTailCounts)
	}
	// The claims are journaled, disjoint, and come from both survivors.
	claimed := map[int]string{}
	claimers := map[string]bool{}
	for _, cl := range audit.Claims {
		if cl.Dead != "h1" {
			t.Fatalf("claim against unexpected member: %+v", cl)
		}
		claimers[cl.Claimer] = true
		for _, s := range cl.Stripes {
			if prev, dup := claimed[s]; dup {
				t.Fatalf("stripe %d claimed twice (%s and %s)", s, prev, cl.Claimer)
			}
			claimed[s] = cl.Claimer
		}
	}
	if !claimers["h0"] || !claimers["h2"] || len(claimers) != 2 {
		t.Fatalf("claimers = %v, want exactly h0 and h2", claimers)
	}
	if len(audit.Keys) != total {
		t.Fatalf("audit saw %d keys, want %d (acked submits must be durable)", len(audit.Keys), total)
	}
	if lost := audit.Lost(); len(lost) != 0 {
		t.Fatalf("%d lost jobs: %v", len(lost), lost)
	}
	if dbl := audit.Doubles(); len(dbl) != 0 {
		t.Fatalf("%d double executions: %v", len(dbl), dbl)
	}
	for key, kt := range audit.Keys {
		if len(kt.StartedOn) > 1 {
			hasDead := false
			for _, h := range kt.StartedOn {
				if h == "h1" {
					hasDead = true
				}
			}
			if !hasDead {
				t.Fatalf("key %d started on %v without the dead handler among them", key, kt.StartedOn)
			}
		}
	}

	// Seniority after rebalance: on each survivor, the jobs adopted from
	// the dead handler start in their original submission order.
	for _, survivor := range []string{"h0", "h2"} {
		type adopted struct {
			key       uint64
			submitted time.Duration
			started   time.Duration
		}
		var got []adopted
		for key, kt := range audit.Keys {
			if kt.AdoptedFrom[survivor] != "h1" {
				continue
			}
			starts := kt.Starts[survivor]
			if len(starts) == 0 {
				continue
			}
			got = append(got, adopted{key, kt.Submitted, starts[len(starts)-1]})
		}
		if len(got) == 0 {
			continue
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
