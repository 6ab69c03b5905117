package sched

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"gyan/internal/sim"
)

// Property-based tests: a seeded random driver exercises Submit / Cycle /
// Release / Remove sequences and checks the scheduler's safety
// invariants after every step. The generators run off sim.NewRNG, so a
// failing seed reproduces exactly.

// propInvariants checks the safety properties that must hold after every
// scheduler step, with white-box access to the queue and running set.
func propInvariants(t *testing.T, s *Scheduler, cluster int, step int, seed uint64) {
	t.Helper()
	ctx := func() string { return fmt.Sprintf("seed %d step %d", seed, step) }

	// No device oversubscription: every device is held by at most one
	// running job, and every held device exists.
	holder := map[int]int{}
	for id, r := range s.running {
		for _, d := range r.devices {
			if d < 0 || d >= cluster {
				t.Fatalf("%s: job %d holds nonexistent device %d", ctx(), id, d)
			}
			if other, taken := holder[d]; taken {
				t.Fatalf("%s: device %d held by jobs %d and %d", ctx(), d, other, id)
			}
			holder[d] = id
		}
	}

	// No gang partially started: a running job holds exactly its ask.
	for id, r := range s.running {
		if len(r.devices) != r.req.GPUs {
			t.Fatalf("%s: job %d asked %d GPUs, holds %v", ctx(), id, r.req.GPUs, r.devices)
		}
	}

	// No job both running and queued.
	for _, e := range s.queue {
		if _, running := s.running[e.req.ID]; running {
			t.Fatalf("%s: job %d is both queued and running", ctx(), e.req.ID)
		}
	}
}

// propModel mirrors what the caller knows: which jobs it submitted, started,
// and released. It is the oracle the scheduler's bookkeeping is checked
// against.
type propModel struct {
	queued  map[int]Request
	running map[int]Request
}

func (m *propModel) checkDecision(t *testing.T, dec Decision, cluster int, step int, seed uint64) {
	t.Helper()
	for _, st := range dec.Starts {
		req, wasQueued := m.queued[st.ID]
		if !wasQueued {
			t.Fatalf("seed %d step %d: start for job %d which the model never queued", seed, step, st.ID)
		}
		if len(st.Devices) != req.GPUs {
			t.Fatalf("seed %d step %d: job %d started on %v, asked %d GPUs",
				seed, step, st.ID, st.Devices, req.GPUs)
		}
		delete(m.queued, st.ID)
		m.running[st.ID] = req
	}
	for _, rj := range dec.Rejects {
		req, wasQueued := m.queued[rj.ID]
		if !wasQueued {
			t.Fatalf("seed %d step %d: reject for job %d which the model never queued", seed, step, rj.ID)
		}
		if req.GPUs <= cluster {
			t.Fatalf("seed %d step %d: job %d (gang %d) rejected on a %d-GPU cluster",
				seed, step, rj.ID, req.GPUs, cluster)
		}
		delete(m.queued, rj.ID)
	}
}

// TestPropSchedulerInvariants drives random operation sequences against
// random configurations and asserts the safety invariants after every cycle.
func TestPropSchedulerInvariants(t *testing.T) {
	users := []string{"ana", "bo", "cy"}
	for seed := uint64(1); seed <= 30; seed++ {
		rng := sim.NewRNG(seed*0x9E3779B9 + 1)
		cluster := 1 + rng.Intn(4)
		s := New(Config{Backfill: rng.Intn(2) == 1})
		model := &propModel{queued: map[int]Request{}, running: map[int]Request{}}
		survey := usageOf(cluster)
		nextID := 1

		for step := 0; step < 200; step++ {
			now := time.Duration(step) * 250 * time.Millisecond

			// Maybe submit: gangs up to cluster+1 so rejects happen too.
			if rng.Float64() < 0.5 {
				req := Request{
					ID:         nextID,
					User:       users[rng.Intn(len(users))],
					Priority:   rng.Intn(3),
					GPUs:       1 + rng.Intn(cluster+1),
					EstRuntime: time.Duration(rng.Intn(8)) * time.Second,
				}
				nextID++
				if err := s.Submit(req, now); err != nil {
					t.Fatalf("seed %d step %d: submit: %v", seed, step, err)
				}
				model.queued[req.ID] = req
			}
			// Maybe remove a random queued job (user kill while waiting).
			if len(model.queued) > 0 && rng.Float64() < 0.1 {
				for id := range model.queued {
					s.Remove(id)
					delete(model.queued, id)
					break
				}
			}
			// Maybe release a random running job (completion).
			if len(model.running) > 0 && rng.Float64() < 0.4 {
				for id := range model.running {
					s.Release(id, now)
					delete(model.running, id)
					break
				}
			}

			dec := s.Cycle(now, survey)
			model.checkDecision(t, dec, cluster, step, seed)
			propInvariants(t, s, cluster, step, seed)

			// The scheduler's running set must match the caller's.
			if len(s.running) != len(model.running) {
				t.Fatalf("seed %d step %d: scheduler runs %d jobs, model %d",
					seed, step, len(s.running), len(model.running))
			}
			for id := range model.running {
				if _, ok := s.running[id]; !ok {
					t.Fatalf("seed %d step %d: model job %d missing from scheduler", seed, step, id)
				}
			}
		}
	}
}

// TestPropHeadOfLineOrdering checks the queue-discipline property: with
// backfill off, the first start of a cycle is always the
// queued job that wins the effective-priority comparison (priority class
// desc, fair-share score asc, submission asc, ID asc).
func TestPropHeadOfLineOrdering(t *testing.T) {
	users := []string{"ana", "bo", "cy"}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRNG(seed * 0x51AF3D)
		s := New(Config{})
		// Random pre-accumulated fair-share usage.
		for _, u := range users {
			s.usage[u] = float64(rng.Intn(100))
		}
		n := 2 + rng.Intn(8)
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{
				ID:        i + 1,
				User:      users[rng.Intn(len(users))],
				Priority:  rng.Intn(3),
				GPUs:      1,
				Submitted: time.Duration(rng.Intn(4)) * time.Second,
			}
			if err := s.Submit(reqs[i], reqs[i].Submitted); err != nil {
				t.Fatal(err)
			}
		}

		want := append([]Request(nil), reqs...)
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.Priority != b.Priority {
				return a.Priority > b.Priority
			}
			as, bs := s.usage[a.User], s.usage[b.User]
			if as != bs {
				return as < bs
			}
			if a.Submitted != b.Submitted {
				return a.Submitted < b.Submitted
			}
			return a.ID < b.ID
		})

		dec := s.Cycle(10*time.Second, usageOf(1))
		if len(dec.Starts) != 1 {
			t.Fatalf("seed %d: %d starts on a 1-GPU cluster, want 1", seed, len(dec.Starts))
		}
		if dec.Starts[0].ID != want[0].ID {
			t.Fatalf("seed %d: started job %d, want head-of-line %d (queue %+v)",
				seed, dec.Starts[0].ID, want[0].ID, reqs)
		}
	}
}

// TestPropGateDenialLeaksNothing drives random traffic through a start gate
// that randomly vetoes starts and checks that denied jobs stay queued, their
// devices stay free, and the scheduler never double-books after a denial.
func TestPropGateDenialLeaksNothing(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed * 0xC0FFEE)
		gateRNG := sim.NewRNG(seed ^ 0xDEAD10CC)
		cluster := 1 + rng.Intn(3)
		s := New(Config{Backfill: rng.Intn(2) == 1})
		denied := 0
		s.SetStartGate(func(id int, devices []int, now time.Duration) error {
			if len(devices) == 0 {
				t.Fatalf("seed %d: gate consulted with an empty gang for job %d", seed, id)
			}
			if gateRNG.Float64() < 0.3 {
				denied++
				return fmt.Errorf("injected gang fault for job %d", id)
			}
			return nil
		})
		model := &propModel{queued: map[int]Request{}, running: map[int]Request{}}
		survey := usageOf(cluster)
		nextID := 1
		for step := 0; step < 120; step++ {
			now := time.Duration(step) * 500 * time.Millisecond
			if rng.Float64() < 0.5 {
				req := Request{ID: nextID, User: "ana", GPUs: 1 + rng.Intn(cluster)}
				nextID++
				if err := s.Submit(req, now); err != nil {
					t.Fatal(err)
				}
				model.queued[req.ID] = req
			}
			if len(model.running) > 0 && rng.Float64() < 0.5 {
				for id := range model.running {
					s.Release(id, now)
					delete(model.running, id)
					break
				}
			}
			dec := s.Cycle(now, survey)
			model.checkDecision(t, dec, cluster, step, seed)
			propInvariants(t, s, cluster, step, seed)
		}
		if denied == 0 {
			t.Fatalf("seed %d: gate never denied a start; generator too weak", seed)
		}
		if s.Metrics().GateDenied != denied {
			t.Fatalf("seed %d: metrics count %d denials, gate issued %d",
				seed, s.Metrics().GateDenied, denied)
		}
	}
}
