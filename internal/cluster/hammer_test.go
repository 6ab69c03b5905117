package cluster

import (
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestClusterRaceHammer runs submit, kill, steal and scrape concurrently
// across three handlers (run it under -race; the Makefile's test-cluster
// target and CI do). The load is deliberately skewed — one submitter pins
// every key into h0's partition — so the steal pass fires while the killer
// and scraper race it. The invariant under all interleavings: work stealing
// never double-starts a job, and no acked job is lost.
func TestClusterRaceHammer(t *testing.T) {
	c := newTestCluster(t, 3, func(cfg *SimConfig) { cfg.stealThreshold = 1 })
	owned := stripesOf(c, "h0")
	if len(owned) == 0 {
		t.Fatal("h0 owns no stripes")
	}

	const perSubmitter = 60
	var wg sync.WaitGroup

	// Submitter 0 pins heavy jobs into h0's partition, descending from the
	// top of the keyspace so the pinned range never collides with the
	// sequential keys the other submitters draw.
	wg.Add(1)
	go func() {
		defer wg.Done()
		top := uint64(1) << 60
		for i := 0; i < perSubmitter; i++ {
			key := top - uint64(i)*uint64(DefaultStripes) + uint64(owned[i%len(owned)])
			if _, err := c.Submit("racon", map[string]string{"scale": "0.005"}, "reads",
				SubmitOptions{User: "pinner", Key: &key}); err != nil {
				t.Errorf("pinned submit %d: %v", i, err)
				return
			}
		}
	}()

	// Two plain submitters spread mixed-size jobs over the whole ring.
	for s := 1; s <= 2; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perSubmitter; i++ {
				scale := "0.001"
				if rng.Intn(3) == 0 {
					scale = "0.002"
				}
				if _, err := c.Submit("racon", map[string]string{"scale": scale}, "reads",
					SubmitOptions{User: "mixer"}); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(int64(s))
	}

	// The killer shoots at sequential keys while they are queued, running
	// or already stolen; misses (not yet submitted, already terminal) are
	// fine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 25; i++ {
			c.KillJob(uint64(rng.Intn(2 * perSubmitter)))
		}
	}()

	// The scraper hammers every read-side surface the handlers expose.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 120; i++ {
			c.Survey()
			c.Status()
			_ = c.Registry().WritePrometheus(io.Discard)
			for _, id := range c.Handlers() {
				c.Node(id).g.Jobs()
			}
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	settled := false
	for {
		busy := c.Step()
		if settled && !busy {
			break
		}
		select {
		case <-done:
			settled = true
		default:
		}
		if c.Now() > 12*time.Hour {
			t.Fatal("hammer did not drain")
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	st := c.Status()
	if st.Steals == 0 {
		t.Fatal("skewed hammer produced no steals — the race being tested never ran")
	}
	if err := c.SyncJournals(); err != nil {
		t.Fatal(err)
	}
	audit, err := AuditJournals(c.JournalDirs())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(audit.Keys), 3*perSubmitter; got != want {
		t.Fatalf("audit saw %d keys, want %d", got, want)
	}
	if lost := audit.Lost(); len(lost) != 0 {
		t.Fatalf("lost keys: %v", lost)
	}
	if dbl := audit.Doubles(); len(dbl) != 0 {
		t.Fatalf("double executions: %v", dbl)
	}
	if ill := audit.Illegal(); len(ill) != 0 {
		t.Fatalf("trails holding a record the lifecycle refuses: %v", ill)
	}
	for key, kt := range audit.Keys {
		if len(kt.StartedOn) > 1 {
			t.Fatalf("key %d double-started on %v", key, kt.StartedOn)
		}
		if kt.OKs > 1 {
			t.Fatalf("key %d completed ok on %d handlers", key, kt.OKs)
		}
	}
}
