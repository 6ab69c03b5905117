package experiments

import "testing"

// TestGenomicsPipelineLocalityWins pins the experiment's headline claim: with
// the identical arrival trace and scheduler, adding the locality term must
// strictly improve makespan and the step-wait tail, and eliminate staging
// entirely (every downstream step lands on the device holding its input).
func TestGenomicsPipelineLocalityWins(t *testing.T) {
	t.Parallel()
	res, err := Run("genomics-pipeline", Options{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m["makespan_aware"] >= m["makespan_blind"] {
		t.Errorf("aware makespan %.3fs not better than blind %.3fs",
			m["makespan_aware"], m["makespan_blind"])
	}
	if m["p99_step_wait_aware"] >= m["p99_step_wait_blind"] {
		t.Errorf("aware p99 step wait %.3fs not better than blind %.3fs",
			m["p99_step_wait_aware"], m["p99_step_wait_blind"])
	}
	if m["stage_in_total_aware"] != 0 {
		t.Errorf("aware placement staged %.3fs of data; want none", m["stage_in_total_aware"])
	}
	if m["stage_in_total_blind"] <= 0 {
		t.Errorf("blind placement staged nothing — the experiment no longer exercises locality")
	}
}
