package experiments

import (
	"sync"
	"testing"
)

// schedOnce memoizes one sched-backfill run: both tests below want the same
// seed-42 result, and each run replays the trace under three dispatch modes.
var schedOnce = sync.OnceValues(func() (*Result, error) {
	return Run("sched-backfill", quick())
})

// TestSchedBackfillBeatsGreedy pins the headline claim of the scheduler
// subsystem: on the same arrival trace, conservative backfill finishes the
// batch sooner and with a lower P99 sojourn than greedy dispatch, because
// greedy diverts the trace's 2-GPU job onto a single free device while the
// scheduler holds it for its full gang.
func TestSchedBackfillBeatsGreedy(t *testing.T) {
	t.Parallel()
	res, err := schedOnce()
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m["makespan_backfill"] >= m["makespan_greedy"] {
		t.Errorf("backfill makespan %.3fs, want < greedy %.3fs",
			m["makespan_backfill"], m["makespan_greedy"])
	}
	if m["p99_sojourn_backfill"] >= m["p99_sojourn_greedy"] {
		t.Errorf("backfill p99 sojourn %.3fs, want < greedy %.3fs",
			m["p99_sojourn_backfill"], m["p99_sojourn_greedy"])
	}
	// Against FIFO gangs, backfill's contribution is the short jobs sliding
	// through the blocked 2-GPU reservation: queue wait and makespan drop.
	if m["mean_qwait_backfill"] >= m["mean_qwait_fifo-gang"] {
		t.Errorf("backfill mean queue wait %.3fs, want < fifo-gang %.3fs",
			m["mean_qwait_backfill"], m["mean_qwait_fifo-gang"])
	}
	if m["makespan_backfill"] >= m["makespan_fifo-gang"] {
		t.Errorf("backfill makespan %.3fs, want < fifo-gang %.3fs",
			m["makespan_backfill"], m["makespan_fifo-gang"])
	}
	if m["backfills_backfill"] < 1 {
		t.Errorf("backfill mode recorded %v backfills, want >= 1", m["backfills_backfill"])
	}
	if m["backfills_fifo-gang"] != 0 {
		t.Errorf("fifo-gang mode recorded %v backfills, want 0", m["backfills_fifo-gang"])
	}
}

// TestSchedBackfillDeterministic asserts the experiment is a pure function
// of its seed: the simulation clock drives every decision, so two runs agree
// bit-for-bit on every metric.
func TestSchedBackfillDeterministic(t *testing.T) {
	t.Parallel()
	a, err := schedOnce()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("sched-backfill", quick())
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
