package obs

import (
	"sync"
	"testing"
	"time"

	"gyan/internal/journal"
)

// TestObserverTransitionMapsRecords drives the observer with a synthetic
// journal stream and the events that are not records, and checks the
// counters it derives.
func TestObserverTransitionMapsRecords(t *testing.T) {
	o := NewObserver()
	recs := []journal.Record{
		{Type: journal.TypeSubmit, At: 0, Job: 1, Tool: "racon"},
		{Type: journal.TypeStart, At: 2 * time.Second, Job: 1, Epoch: 1, Destination: "gpu_k80"},
		{Type: journal.TypeAttempt, At: 3 * time.Second, Job: 1, Attempt: 1, Class: "transient"},
		{Type: journal.TypeStart, At: 4 * time.Second, Job: 1, Epoch: 2, Destination: "gpu_k80"},
		{Type: journal.TypeComplete, At: 6 * time.Second, Job: 1, State: "ok"},
		{Type: journal.TypeSubmit, At: 0, Job: 2, Tool: "bonito"},
		{Type: journal.TypeDeadLetter, At: time.Second, Job: 2, Msg: "dead-letter after 3 attempt(s)"},
	}
	for _, rec := range recs {
		o.Transition(rec)
	}
	// The events that are not records: job 1 is mapped, two GPU jobs park
	// and one is granted; one device enters quarantine.
	o.Mapped("gpu_k80")
	o.Parked()
	o.Granted()
	o.Parked()
	o.Quarantined()
	// The engine observes the latencies off the job's own history.
	o.ObserveSubmitToStart(2 * time.Second)
	o.ObserveSubmitToComplete(6 * time.Second)

	snap := o.Reg.Snapshot()
	checks := map[string]float64{
		`gyan_jobs_submitted_total{tool="racon"}`:         1,
		`gyan_jobs_submitted_total{tool="bonito"}`:        1,
		`gyan_map_decisions_total{destination="gpu_k80"}`: 1,
		`gyan_job_attempts_total{class="transient"}`:      1,
		`gyan_jobs_completed_total{state="ok"}`:           1,
		`gyan_jobs_completed_total{state="dead_letter"}`:  1,
		"gyan_quarantine_total":                           1,
		"gyan_sched_parked_total":                         2,
		"gyan_sched_grants_total":                         1,
		"gyan_submit_to_start_seconds_count":              1,
		"gyan_submit_to_start_seconds_sum":                2,
		"gyan_submit_to_complete_seconds_count":           1,
	}
	for name, want := range checks {
		if got := snap[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestObserverFsync(t *testing.T) {
	o := NewObserver()
	o.ObserveFsync(16, 2*time.Millisecond)
	o.ObserveFsync(1, 100*time.Microsecond)
	snap := o.Reg.Snapshot()
	if snap["gyan_journal_fsync_batch_records_count"] != 2 {
		t.Fatalf("fsync batch count = %v", snap["gyan_journal_fsync_batch_records_count"])
	}
	if snap["gyan_journal_fsync_batch_records_sum"] != 17 {
		t.Fatalf("fsync batch sum = %v", snap["gyan_journal_fsync_batch_records_sum"])
	}
	if snap["gyan_journal_fsync_seconds_count"] != 2 {
		t.Fatalf("fsync seconds count = %v", snap["gyan_journal_fsync_seconds_count"])
	}
}

// TestObserverConcurrentTransitions replays interleaved lifecycles from many
// goroutines; under -race it proves Transition is safe without caller locks.
func TestObserverConcurrentTransitions(t *testing.T) {
	o := NewObserver()
	var wg sync.WaitGroup
	const workers, jobsPer = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < jobsPer; i++ {
				job := w*jobsPer + i
				at := time.Duration(i) * time.Millisecond
				o.Transition(journal.Record{Type: journal.TypeSubmit, At: at, Job: job, Tool: "racon"})
				o.Transition(journal.Record{Type: journal.TypeStart, At: at + time.Second, Job: job, Epoch: 1})
				o.ObserveSubmitToStart(time.Second)
				o.Transition(journal.Record{Type: journal.TypeComplete, At: at + 2*time.Second, Job: job, State: "ok"})
			}
		}(w)
	}
	wg.Wait()
	snap := o.Reg.Snapshot()
	if got := snap[`gyan_jobs_submitted_total{tool="racon"}`]; got != workers*jobsPer {
		t.Fatalf("submitted = %v, want %d", got, workers*jobsPer)
	}
	if got := snap[`gyan_jobs_completed_total{state="ok"}`]; got != workers*jobsPer {
		t.Fatalf("completed = %v, want %d", got, workers*jobsPer)
	}
	if got := snap["gyan_submit_to_start_seconds_count"]; got != workers*jobsPer {
		t.Fatalf("submit_to_start count = %v, want %d", got, workers*jobsPer)
	}
}
