package obs

import (
	"sync"
	"testing"
	"time"

	"gyan/internal/journal"
)

func TestTracerLifecycleAndSegments(t *testing.T) {
	tr := NewTracer(0)
	tr.Begin(1, "racon")
	tr.Record(1, Event{Name: "submit", At: 0})
	tr.Record(1, Event{Name: "map", At: 0, Detail: "gpu_k80"})
	tr.Record(1, Event{Name: "start", At: 2 * time.Second, Attempt: 1})
	tr.Record(1, Event{Name: "attempt_fail", At: 5 * time.Second, Attempt: 1, Detail: "transient"})
	tr.Record(1, Event{Name: "start", At: 6 * time.Second, Attempt: 2})
	tr.Record(1, Event{Name: "complete", At: 9 * time.Second, Detail: "ok"})

	got, ok := tr.Get(1)
	if !ok {
		t.Fatal("trace missing")
	}
	if got.Tool != "racon" || len(got.Events) != 6 {
		t.Fatalf("trace = %+v", got)
	}
	want := map[string]time.Duration{
		"queue_wait":    2 * time.Second, // submit@0 -> start@2
		"retry_backoff": time.Second,     // fail@5 -> start@6
	}
	runs := 0
	for _, seg := range got.Segments {
		switch seg.Name {
		case "run":
			runs++
		default:
			if want[seg.Name] != seg.Dur {
				t.Errorf("%s = %v, want %v", seg.Name, seg.Dur, want[seg.Name])
			}
			delete(want, seg.Name)
		}
	}
	if len(want) != 0 {
		t.Errorf("missing segments: %v", want)
	}
	if runs != 2 {
		t.Errorf("run segments = %d, want 2 (one per start)", runs)
	}
}

func TestTracerMetaCountsStarts(t *testing.T) {
	tr := NewTracer(0)
	tr.Begin(7, "bonito")
	tr.Record(7, Event{Name: "submit", At: time.Second})
	m, ok := tr.Record(7, Event{Name: "start", At: 3 * time.Second})
	if !ok || m.Starts != 1 || m.Submitted != time.Second {
		t.Fatalf("first start meta = %+v ok=%v", m, ok)
	}
	m, _ = tr.Record(7, Event{Name: "start", At: 5 * time.Second})
	if m.Starts != 2 {
		t.Fatalf("second start meta = %+v", m)
	}
}

func TestTracerUnknownJob(t *testing.T) {
	tr := NewTracer(0)
	if _, ok := tr.Record(42, Event{Name: "start"}); ok {
		t.Fatal("recording on an unknown job should report no trace")
	}
	if _, ok := tr.Get(42); ok {
		t.Fatal("unknown job should have no trace")
	}
}

// Len reports how many traces are currently retained.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}

// TestTracerEvictsOldest pins the exact bound: past maxJobs, exactly the
// maxJobs newest traces are retained.
func TestTracerEvictsOldest(t *testing.T) {
	tr := NewTracer(32)
	for id := 0; id < 96; id++ {
		tr.Begin(id, "racon")
		tr.Record(id, Event{Name: "submit"})
	}
	if n := tr.Len(); n != 32 {
		t.Fatalf("tracer retains %d traces, want exactly 32", n)
	}
	for id := 0; id < 96; id++ {
		if _, ok := tr.Get(id); ok != (id >= 64) {
			t.Fatalf("trace %d retained=%v, want only the 32 newest (64..95)", id, ok)
		}
	}
}

// TestObserverTransitionMapsRecords drives the observer with a synthetic
// journal stream and checks the counters, histograms and trace it derives.
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
	// The events that are not records: job 1 is mapped, job 3 parks, is
	// granted, and a second parked job is killed while waiting; one device
	// enters quarantine.
	o.Mapped(1, 0, "gpu_k80")
	o.Parked(3, time.Second)
	o.Granted(3, 2*time.Second)
	o.Parked(4, time.Second)
	o.Unqueued(4, 3*time.Second)
	o.Quarantined()

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
		"gyan_submit_to_start_seconds_count":              1, // job 1's first start; job 2 never starts
		"gyan_submit_to_complete_seconds_count":           1,
	}
	for name, want := range checks {
		if got := snap[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// submit(0) -> first start(2s): the latency histogram saw 2s, not the
	// retry's 4s.
	if sum := snap["gyan_submit_to_start_seconds_sum"]; sum != 2 {
		t.Errorf("submit_to_start sum = %v, want 2 (first starts only: job1 2s + job2 none)", sum)
	}

	tr, ok := o.Traces.Get(1)
	if !ok || len(tr.Events) != 6 {
		t.Fatalf("job 1 trace = %+v ok=%v", tr, ok)
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
				o.Transition(journal.Record{Type: journal.TypeComplete, At: at + 2*time.Second, Job: job, State: "ok"})
			}
		}(w)
	}
	wg.Wait()
	snap := o.Reg.Snapshot()
	if got := snap[`gyan_jobs_submitted_total{tool="racon"}`]; got != workers*jobsPer {
		t.Fatalf("submitted = %v, want %d", got, workers*jobsPer)
	}
	if got := snap["gyan_submit_to_start_seconds_count"]; got != workers*jobsPer {
		t.Fatalf("submit_to_start count = %v, want %d", got, workers*jobsPer)
	}
}
