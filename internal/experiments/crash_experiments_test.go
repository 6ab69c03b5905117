package experiments

import (
	"sync"
	"testing"
)

// crashOnce memoizes one crash-recovery run: both tests below want the same
// seed-42 result, and each run replays the trace three times (baseline,
// crashed handler, standby).
var crashOnce = sync.OnceValues(func() (*Result, error) {
	return Run("crash-recovery", quick())
})

// TestCrashRecoveryInvariants pins the failover guarantees: killing a
// journaled handler mid-workload (torn tail included) loses no job, durably
// records no execution twice, reproduces the uninterrupted baseline's
// completion set, and redispatches requeued jobs in seniority order.
func TestCrashRecoveryInvariants(t *testing.T) {
	t.Parallel()
	res, err := crashOnce()
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	t.Logf("metrics: %+v", m)
	if m["lost_jobs"] != 0 {
		t.Errorf("lost %v jobs across the failover, want 0", m["lost_jobs"])
	}
	if m["double_executions"] != 0 {
		t.Errorf("%v jobs durably completed twice, want 0", m["double_executions"])
	}
	if m["completion_set_identical"] != 1 {
		t.Error("recovered completion set differs from the uninterrupted baseline")
	}
	if m["seniority_violations"] != 0 {
		t.Errorf("%v requeued jobs dispatched out of seniority order", m["seniority_violations"])
	}
	// The crash itself must be real: a torn tail on disk, a meaningful
	// durable prefix (some completions survived), and work left to adopt.
	if m["corrupt_tail"] != 1 || m["torn_segments"] < 1 {
		t.Errorf("no torn tail detected: corrupt_tail=%v torn_segments=%v",
			m["corrupt_tail"], m["torn_segments"])
	}
	if m["pre_crash_completed"] < 1 {
		t.Errorf("nothing completed before the crash (%v); crashAt too early", m["pre_crash_completed"])
	}
	if m["requeued"] < 1 || m["adopted"] < 1 {
		t.Errorf("failover did no work: requeued=%v adopted=%v", m["requeued"], m["adopted"])
	}
	if m["records_replayed"] < 1 {
		t.Errorf("replayed %v records", m["records_replayed"])
	}
}

// TestCrashRecoveryDeterministic asserts the experiment is a pure function
// of its seed: the simulation clock, fault plan, arrival trace and journal
// replay are all deterministic, so two runs agree on every metric.
func TestCrashRecoveryDeterministic(t *testing.T) {
	t.Parallel()
	a, err := crashOnce()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("crash-recovery", quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Metrics) != len(b.Metrics) {
		t.Fatalf("metric sets differ: %d vs %d", len(a.Metrics), len(b.Metrics))
	}
	for k, v := range a.Metrics {
		if b.Metrics[k] != v {
			t.Errorf("metric %s differs across runs: %v vs %v", k, v, b.Metrics[k])
		}
	}
}
