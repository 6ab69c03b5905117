package experiments

import (
	"sync"
	"testing"
)

// clusterOnce memoizes one quick cluster-scaling run: it drives three full
// cluster simulations (1-handler, 3-handler, kill phase).
var clusterOnce = sync.OnceValues(func() (*Result, error) {
	return Run("cluster-scaling", quick())
})

// TestClusterScaling pins the tentpole claims: 3 handlers sustain at least
// 2.4x the 1-handler saturation throughput, and killing one of three
// handlers mid-workload loses nothing, double-runs nothing, and spreads the
// dead partition over both survivors instead of adopting it wholesale.
func TestClusterScaling(t *testing.T) {
	t.Parallel()
	res, err := clusterOnce()
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	t.Logf("metrics: %+v", m)
	if m["scaling_3h_over_1h"] < 2.4 {
		t.Errorf("3-handler scaling %.2fx, want >= 2.4x", m["scaling_3h_over_1h"])
	}
	if m["throughput_1h_jobs_per_sec"] <= 0 || m["throughput_3h_jobs_per_sec"] <= 0 {
		t.Errorf("degenerate throughput: 1h=%v 3h=%v",
			m["throughput_1h_jobs_per_sec"], m["throughput_3h_jobs_per_sec"])
	}
	if m["kill_lost"] != 0 {
		t.Errorf("kill phase lost %v jobs, want 0", m["kill_lost"])
	}
	if m["kill_doubles"] != 0 {
		t.Errorf("kill phase double-ran %v jobs, want 0", m["kill_doubles"])
	}
	if m["rebalance_survivors"] < 2 {
		t.Errorf("dead partition went to %v survivors, want both", m["rebalance_survivors"])
	}
	if m["torn_tail_detected"] != 1 {
		t.Error("the kill left no torn journal tail — the crash was not kill -9 shaped")
	}
	if m["kill_requeued"] < 1 {
		t.Errorf("rebalance re-homed %v jobs; the kill landed after the workload drained", m["kill_requeued"])
	}
}

// TestClusterScalingDeterministic asserts the experiment is a pure function
// of its seed: lockstep ticks, ring assignment and the journal audit are
// all deterministic, so two runs agree on every metric.
func TestClusterScalingDeterministic(t *testing.T) {
	t.Parallel()
	a, err := clusterOnce()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("cluster-scaling", quick())
	if err != nil {
		t.Fatal(err)
	}
	for k, av := range a.Metrics {
		if bv := b.Metrics[k]; av != bv {
			t.Errorf("metric %s differs across identical runs: %v vs %v", k, av, bv)
		}
	}
}
