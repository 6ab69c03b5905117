package sched

import (
	"testing"
	"time"

	"gyan/internal/smi"
)

// usageOf builds a survey for an n-GPU idle cluster.
func usageOf(n int) smi.Usage {
	u := smi.Usage{
		ProcsByGPU:      map[int][]int{},
		UsedMemMiBByGPU: map[int]int64{},
		UtilPctByGPU:    map[int]int{},
	}
	for i := 0; i < n; i++ {
		u.AllGPUs = append(u.AllGPUs, i)
		u.AvailableGPUs = append(u.AvailableGPUs, i)
	}
	return u
}

func mustSubmit(t *testing.T, s *Scheduler, req Request, now time.Duration) {
	t.Helper()
	if err := s.Submit(req, now); err != nil {
		t.Fatal(err)
	}
}

func startIDs(d Decision) []int {
	out := make([]int, 0, len(d.Starts))
	for _, st := range d.Starts {
		out = append(out, st.ID)
	}
	return out
}

func TestPriorityOrderBeatsSubmissionOrder(t *testing.T) {
	s := New(Config{})
	mustSubmit(t, s, Request{ID: 1, User: "a", Priority: 0, GPUs: 1}, 0)
	mustSubmit(t, s, Request{ID: 2, User: "b", Priority: 5, GPUs: 1}, 0)
	dec := s.Cycle(0, usageOf(1))
	if got := startIDs(dec); len(got) != 1 || got[0] != 2 {
		t.Fatalf("starts = %v, want the priority-5 job (id 2) on the single GPU", got)
	}
	if s.QueueDepth() != 1 {
		t.Fatalf("queue depth = %d after one start", s.QueueDepth())
	}
}

func TestFairShareOrdersEqualPriorities(t *testing.T) {
	s := New(Config{})
	// heavy has already burned GPU-seconds; hungry has not.
	s.usage["heavy"] = 100
	mustSubmit(t, s, Request{ID: 1, User: "heavy", GPUs: 1}, 0)
	mustSubmit(t, s, Request{ID: 2, User: "hungry", GPUs: 1}, time.Millisecond)
	dec := s.Cycle(time.Second, usageOf(1))
	if got := startIDs(dec); len(got) != 1 || got[0] != 2 {
		t.Fatalf("starts = %v, want the hungry user's job first", got)
	}
}

func TestReleaseChargesUsage(t *testing.T) {
	s := New(Config{})
	mustSubmit(t, s, Request{ID: 1, User: "a", GPUs: 2}, 0)
	dec := s.Cycle(0, usageOf(2))
	if len(dec.Starts) != 1 {
		t.Fatalf("starts = %+v", dec.Starts)
	}
	s.Release(1, 10*time.Second)
	if got := s.Usage("a"); got != 20 {
		t.Fatalf("usage = %v GPU-seconds, want 20 (2 GPUs x 10 s)", got)
	}
}

func TestGangAllOrNothing(t *testing.T) {
	s := New(Config{})
	u := usageOf(2)
	// A 1-GPU job occupies one device.
	mustSubmit(t, s, Request{ID: 1, User: "a", GPUs: 1}, 0)
	dec := s.Cycle(0, u)
	if len(dec.Starts) != 1 || len(dec.Starts[0].Devices) != 1 {
		t.Fatalf("setup start = %+v", dec.Starts)
	}
	// The 2-GPU gang must not start on the single free device.
	mustSubmit(t, s, Request{ID: 2, User: "b", GPUs: 2}, time.Second)
	dec = s.Cycle(time.Second, u)
	if len(dec.Starts) != 0 {
		t.Fatalf("gang started on a partial device set: %+v", dec.Starts)
	}
	// Once the whole cluster frees, the gang gets both devices at once.
	s.Release(1, 2*time.Second)
	dec = s.Cycle(2*time.Second, u)
	if len(dec.Starts) != 1 {
		t.Fatalf("gang did not start on the idle cluster: %+v", dec)
	}
	if got := dec.Starts[0].Devices; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("gang devices = %v, want [0 1]", got)
	}
}

func TestOversizedGangRejected(t *testing.T) {
	s := New(Config{})
	mustSubmit(t, s, Request{ID: 1, User: "a", GPUs: 3}, 0)
	dec := s.Cycle(0, usageOf(2))
	if len(dec.Rejects) != 1 || dec.Rejects[0].ID != 1 {
		t.Fatalf("rejects = %+v, want job 1 rejected", dec.Rejects)
	}
	if s.QueueDepth() != 0 {
		t.Fatal("rejected job still queued")
	}
	// An impossible gang must not block later feasible jobs — submit
	// both together and the feasible one still starts.
	mustSubmit(t, s, Request{ID: 2, User: "a", GPUs: 3}, time.Second)
	mustSubmit(t, s, Request{ID: 3, User: "a", GPUs: 1}, time.Second)
	dec = s.Cycle(time.Second, usageOf(2))
	if len(dec.Rejects) != 1 || len(dec.Starts) != 1 || dec.Starts[0].ID != 3 {
		t.Fatalf("decision = %+v, want job 2 rejected and job 3 started", dec)
	}
}

func TestScorerPicksLeastLoadedDevice(t *testing.T) {
	s := New(Config{})
	u := usageOf(2)
	u.ProcsByGPU[0] = []int{4001, 4002}
	u.ProcsByGPU[1] = []int{4003}
	mustSubmit(t, s, Request{ID: 1, User: "a", GPUs: 1}, 0)
	dec := s.Cycle(0, u)
	if len(dec.Starts) != 1 || dec.Starts[0].Devices[0] != 1 {
		t.Fatalf("starts = %+v, want device 1 (fewest processes)", dec.Starts)
	}
}

// TestBackfillDoesNotDelayReservation is the core backfill invariant: a
// short job slides past the blocked gang, a long one does not, and the gang
// starts exactly when the blocking job's devices free.
func TestBackfillDoesNotDelayReservation(t *testing.T) {
	s := New(Config{Backfill: true})
	u := usageOf(2)
	// Job 1 runs on one device until t=100s.
	mustSubmit(t, s, Request{ID: 1, User: "a", GPUs: 1, EstRuntime: 100 * time.Second}, 0)
	dec := s.Cycle(0, u)
	if len(dec.Starts) != 1 {
		t.Fatalf("setup: %+v", dec)
	}
	blocker := dec.Starts[0].Devices[0]

	// Head-of-line gang needs both devices; a 50s job fits under the
	// reservation, a 200s job would overrun it.
	mustSubmit(t, s, Request{ID: 2, User: "b", GPUs: 2, EstRuntime: 10 * time.Second}, time.Second)
	mustSubmit(t, s, Request{ID: 3, User: "c", GPUs: 1, EstRuntime: 50 * time.Second}, 2*time.Second)
	mustSubmit(t, s, Request{ID: 4, User: "d", GPUs: 1, EstRuntime: 200 * time.Second}, 3*time.Second)
	dec = s.Cycle(3*time.Second, u)
	if len(dec.Starts) != 1 || dec.Starts[0].ID != 3 || !dec.Starts[0].Backfilled {
		t.Fatalf("starts = %+v, want only job 3 backfilled", dec.Starts)
	}
	if dec.Starts[0].Devices[0] == blocker {
		t.Fatalf("backfill landed on the occupied device %d", blocker)
	}
	if s.QueueDepth() != 2 {
		t.Fatalf("queue depth = %d, want 2 (gang + long job)", s.QueueDepth())
	}

	// Job 3 (backfilled, 50s estimate) finishes by t=53s; nothing else
	// may start before the blocker releases.
	s.Release(3, 53*time.Second)
	dec = s.Cycle(53*time.Second, u)
	if len(dec.Starts) != 0 {
		t.Fatalf("premature start while gang head still blocked: %+v", dec.Starts)
	}

	// The blocker ends on schedule; the gang starts immediately, not
	// delayed by any backfilled work.
	s.Release(1, 100*time.Second)
	dec = s.Cycle(100*time.Second, u)
	if len(dec.Starts) != 1 || dec.Starts[0].ID != 2 {
		t.Fatalf("starts = %+v, want the gang (job 2) at its reserved time", dec.Starts)
	}
	if len(dec.Starts[0].Devices) != 2 {
		t.Fatalf("gang devices = %v", dec.Starts[0].Devices)
	}
	if got := dec.Starts[0].Wait; got != 99*time.Second {
		t.Fatalf("gang waited %v, want 99s (submitted t=1s, started t=100s)", got)
	}
}

func TestNoBackfillWithoutFlag(t *testing.T) {
	s := New(Config{Backfill: false})
	u := usageOf(2)
	mustSubmit(t, s, Request{ID: 1, User: "a", GPUs: 1, EstRuntime: 100 * time.Second}, 0)
	if dec := s.Cycle(0, u); len(dec.Starts) != 1 {
		t.Fatalf("setup failed")
	}
	mustSubmit(t, s, Request{ID: 2, User: "b", GPUs: 2, EstRuntime: 10 * time.Second}, time.Second)
	mustSubmit(t, s, Request{ID: 3, User: "c", GPUs: 1, EstRuntime: time.Second}, 2*time.Second)
	dec := s.Cycle(2*time.Second, u)
	if len(dec.Starts) != 0 {
		t.Fatalf("FIFO scheduler backfilled: %+v", dec.Starts)
	}
}

func TestRemoveDropsQueuedJob(t *testing.T) {
	s := New(Config{})
	mustSubmit(t, s, Request{ID: 1, User: "a", GPUs: 1}, 0)
	s.Remove(1)
	if s.QueueDepth() != 0 {
		t.Fatal("removed job still queued")
	}
	if dec := s.Cycle(0, usageOf(1)); len(dec.Starts) != 0 {
		t.Fatalf("removed job started: %+v", dec.Starts)
	}
}

func TestDuplicateSubmitRejected(t *testing.T) {
	s := New(Config{})
	mustSubmit(t, s, Request{ID: 1, User: "a", GPUs: 1}, 0)
	if err := s.Submit(Request{ID: 1, User: "a", GPUs: 1}, 0); err == nil {
		t.Fatal("duplicate queued submit accepted")
	}
	if dec := s.Cycle(0, usageOf(1)); len(dec.Starts) != 1 {
		t.Fatal("setup failed")
	}
	if err := s.Submit(Request{ID: 1, User: "a", GPUs: 1}, 0); err == nil {
		t.Fatal("duplicate running submit accepted")
	}
	if err := s.Submit(Request{ID: 9, User: "a", GPUs: 0}, 0); err == nil {
		t.Fatal("zero-GPU request accepted")
	}
}

func TestMetricsWaitPercentiles(t *testing.T) {
	m := Metrics{Waits: []time.Duration{
		1 * time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second,
	}}
	if got := m.MeanWait(); got != 2500*time.Millisecond {
		t.Fatalf("mean = %v", got)
	}
	if got := m.P99Wait(); got != 4*time.Second {
		t.Fatalf("p99 = %v", got)
	}
	if got := m.PercentileWait(0.5); got != 2*time.Second {
		t.Fatalf("p50 = %v", got)
	}
	if got := (Metrics{}).P99Wait(); got != 0 {
		t.Fatalf("empty p99 = %v", got)
	}
}

func TestLocalityBonusPrefersHintedDevices(t *testing.T) {
	s := New(Config{LocalityBonus: 1e6})
	// On an idle 4-GPU cluster every device scores 0 under the process-count
	// scorer, so without the hint the tie-break picks minors 0..n-1. The
	// Prefer hint must pull the gang onto the upstream devices instead.
	mustSubmit(t, s, Request{ID: 1, User: "a", GPUs: 2, Prefer: []int{2, 3}}, 0)
	dec := s.Cycle(0, usageOf(4))
	if len(dec.Starts) != 1 {
		t.Fatalf("starts = %+v, want one", dec.Starts)
	}
	if got := dec.Starts[0].Devices; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("gang = %v, want the preferred devices [2 3]", got)
	}
}

func TestLocalityBonusZeroIsBlind(t *testing.T) {
	s := New(Config{})
	mustSubmit(t, s, Request{ID: 1, User: "a", GPUs: 1, Prefer: []int{3}}, 0)
	dec := s.Cycle(0, usageOf(4))
	if len(dec.Starts) != 1 || len(dec.Starts[0].Devices) != 1 || dec.Starts[0].Devices[0] != 0 {
		t.Fatalf("starts = %+v, want the tie-break device 0 (hint ignored)", dec.Starts)
	}
}

func TestLocalityBonusOnlyBreaksTiesWhenSmall(t *testing.T) {
	s := New(Config{LocalityBonus: 0.5})
	// Device 1 is preferred but busy (2 resident processes); a sub-unit
	// bonus must not outweigh the scorer's real load signal.
	u := usageOf(2)
	u.ProcsByGPU[1] = []int{101, 102}
	mustSubmit(t, s, Request{ID: 1, User: "a", GPUs: 1, Prefer: []int{1}}, 0)
	dec := s.Cycle(0, u)
	if len(dec.Starts) != 1 || dec.Starts[0].Devices[0] != 0 {
		t.Fatalf("starts = %+v, want the idle device 0 over the loaded preferred one", dec.Starts)
	}
}
