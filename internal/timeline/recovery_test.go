package timeline

import (
	"strings"
	"testing"
	"time"

	"gyan/internal/galaxy"
)

func TestAddRecoveryLanes(t *testing.T) {
	rep := &galaxy.RecoveryReport{
		Handler:      "h2",
		Records:      42,
		LastRecordAt: 8 * time.Second,
		ResumedAt:    15 * time.Second,
		Requeued:     3,
		Adopted:      1,
	}

	var c Chart
	// A post-restart job: recovery history predates this span and must pull
	// the axis backwards rather than being clipped at the job's start.
	c.AddJobs([]*galaxy.Job{{
		ID: 3, ToolID: "racon", State: galaxy.StateOK,
		Started: 15 * time.Second, Finished: 20 * time.Second,
	}})
	c.AddRecovery(rep)

	out := c.Render(60)
	for _, want := range []string{
		"recovery", "replayed 42 records: 3 requeued, 1 adopted",
		"job 3 racon",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "handler") || strings.Contains(out, "lease") {
		t.Errorf("timeline draws a lease lane:\n%s", out)
	}
	// The axis starts at the newest replayed record (8s), not at the
	// post-restart job.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	axis := lines[len(lines)-1]
	if !strings.Contains(axis, "8.00s") || !strings.Contains(axis, "20.00s") {
		t.Errorf("axis not extended across replayed history: %q", axis)
	}
}

func TestAddRecoveryNilReport(t *testing.T) {
	var c Chart
	c.AddRecovery(nil)
	if out := c.Render(40); !strings.Contains(out, "no activity") {
		t.Errorf("nil report rendered spans: %q", out)
	}
}
