package experiments

import (
	"sync"
	"testing"
)

// chaosOnce memoizes one chaos-dispatch run: both tests below need the same
// seed-42 result, and each run replays the trace under three recovery modes,
// which is expensive under the race detector.
var chaosOnce = sync.OnceValues(func() (*Result, error) {
	return Run("chaos-dispatch", quick())
})

// TestChaosDispatchRecoveryOrdering pins the headline claim of the fault
// subsystem: on the same arrival trace against a wedged GPU, retry with
// quarantine completes more jobs than fail-fast and finishes the batch
// sooner, and blind retry pays for re-feeding the bad device.
func TestChaosDispatchRecoveryOrdering(t *testing.T) {
	t.Parallel()
	res, err := chaosOnce()
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	t.Logf("metrics: %+v", m)
	if m["completed_quarantine"] <= m["completed_failfast"] {
		t.Errorf("quarantine completed %v jobs, want > fail-fast %v",
			m["completed_quarantine"], m["completed_failfast"])
	}
	if m["makespan_quarantine"] >= m["makespan_failfast"] {
		t.Errorf("quarantine makespan %.3fs, want < fail-fast %.3fs",
			m["makespan_quarantine"], m["makespan_failfast"])
	}
	if m["deadletter_failfast"] < 1 {
		t.Errorf("fail-fast dead-lettered %v jobs, want >= 1", m["deadletter_failfast"])
	}
	if m["deadletter_quarantine"] != 0 {
		t.Errorf("quarantine dead-lettered %v jobs, want 0", m["deadletter_quarantine"])
	}
	if m["quarantined_quarantine"] != 1 {
		t.Errorf("quarantine blacklisted %v devices, want 1 (GPU 1)", m["quarantined_quarantine"])
	}
	// Blind retry keeps feeding the wedged device, so it fires more faults
	// and takes longer than the quarantined run.
	if m["faults_retry"] <= m["faults_quarantine"] {
		t.Errorf("retry fired %v faults, want > quarantine %v",
			m["faults_retry"], m["faults_quarantine"])
	}
	if m["makespan_quarantine"] >= m["makespan_retry"] {
		t.Errorf("quarantine makespan %.3fs, want < retry %.3fs",
			m["makespan_quarantine"], m["makespan_retry"])
	}
}

// TestChaosDispatchDeterministic asserts the experiment is a pure function
// of its seed: fault plans, backoff jitter and the simulation clock are all
// seeded, so two runs agree bit-for-bit on every metric.
func TestChaosDispatchDeterministic(t *testing.T) {
	t.Parallel()
	a, err := chaosOnce()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("chaos-dispatch", quick())
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
