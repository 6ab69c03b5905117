package obs

import (
	"testing"
	"time"

	"gyan/internal/journal"
)

func TestObserverCountsWorkflowsSeparatelyFromJobs(t *testing.T) {
	o := NewObserver()
	o.Transition(journal.Record{Type: journal.TypeWorkflow, Workflow: 1, WFName: "wgs"})
	o.Transition(journal.Record{Type: journal.TypeSubmit, Job: 1, Tool: "bwa-mem",
		Workflow: 1, Step: "align", At: time.Second})
	o.Transition(journal.Record{Type: journal.TypeComplete, Job: 1, State: "ok",
		At: 2 * time.Second})
	// The workflow verdict carries no job ID; it must not count as a job.
	o.Transition(journal.Record{Type: journal.TypeComplete, Workflow: 1, State: "ok",
		At: 2 * time.Second})

	got := o.Reg.Snapshot()
	want := map[string]float64{
		"gyan_workflows_submitted_total":             1,
		`gyan_workflows_completed_total{state="ok"}`: 1,
		`gyan_jobs_completed_total{state="ok"}`:      1,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
}
