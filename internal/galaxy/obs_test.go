package galaxy

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"gyan/internal/faults"
	"gyan/internal/journal"
)

// TestObserverSeesFullLifecycle runs one GPU job end to end and checks the
// observer derived the full metric set from the journal seam: submit and
// completion counters, the map decision, and both latency histograms.
func TestObserverSeesFullLifecycle(t *testing.T) {
	g := testGalaxy(t)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("job finished %s: %s", job.State, job.Info)
	}

	snap := g.Observer().Reg.Snapshot()
	for name, want := range map[string]float64{
		`gyan_jobs_submitted_total{tool="racon"}`: 1,
		`gyan_jobs_completed_total{state="ok"}`:   1,
		"gyan_submit_to_start_seconds_count":      1,
		"gyan_submit_to_complete_seconds_count":   1,
		`gyan_jobs_state{state="ok"}`:             1,
		`gyan_jobs_state{state="running"}`:        0,
	} {
		if got := snap[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// The mapper's destination decision was counted.
	found := false
	for name := range snap {
		if strings.HasPrefix(name, "gyan_map_decisions_total{") && snap[name] > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no map decision counted")
	}

	tr, ok := g.Trail(job.ID)
	if !ok {
		t.Fatal("no trail for the job")
	}
	var names []string
	for _, e := range tr.Events {
		names = append(names, e.Name)
	}
	got := strings.Join(names, ",")
	for _, want := range []string{"submit", "map", "start", "complete"} {
		if !strings.Contains(got, want) {
			t.Errorf("trail %s missing %q", got, want)
		}
	}
}

// TestObserverCountsRetriesAndDeadLetters checks the fault path: attempt
// classifications, quarantine entries and dead-letter completions all land
// in the registry.
func TestObserverCountsRetriesAndDeadLetters(t *testing.T) {
	plan := faults.NewPlan(7, faults.Rule{
		Match: faults.Match{Op: faults.OpExec, Tool: "racon"},
		Fault: faults.Fault{Class: faults.Transient, Msg: "XID 79"},
		Count: 10, // more than the retry budget: the job dead-letters
	})
	g := testGalaxy(t,
		WithFaultPlan(plan),
		WithRetry(faults.Backoff{MaxAttempts: 3, Base: 50 * time.Millisecond}),
	)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateDeadLetter {
		t.Fatalf("job finished %s: %s", job.State, job.Info)
	}

	snap := g.Observer().Reg.Snapshot()
	if got := snap[`gyan_job_attempts_total{class="transient"}`]; got != 3 {
		t.Errorf("transient attempts = %v, want 3 (retry budget)", got)
	}
	if got := snap[`gyan_jobs_completed_total{state="dead_letter"}`]; got != 1 {
		t.Errorf("dead_letter completions = %v, want 1", got)
	}
	if got := snap[`gyan_jobs_state{state="dead_letter"}`]; got != 1 {
		t.Errorf("dead_letter gauge = %v, want 1", got)
	}
}

// TestJobsStateGaugeFollowsTheLifecycle checks that gyan_jobs_state has a
// series for every state of the lifecycle table and none for a state no job
// holds: a job mid-steal counts as prepared, then as stolen.
func TestJobsStateGaugeFollowsTheLifecycle(t *testing.T) {
	g, _, job := stealVictim(t)
	gauge := func(state string) float64 {
		t.Helper()
		v, ok := g.Observer().Reg.Snapshot()[`gyan_jobs_state{state="`+state+`"}`]
		if !ok {
			t.Errorf("gyan_jobs_state has no %q series", state)
		}
		return v
	}
	for _, s := range journal.States() {
		gauge(string(s))
	}
	if _, ok := g.Observer().Reg.Snapshot()[`gyan_jobs_state{state="new"}`]; ok {
		t.Error(`gyan_jobs_state has a "new" series, a state no job holds`)
	}
	if got := gauge("prepared"); got != 1 {
		t.Errorf(`gyan_jobs_state{state="prepared"} = %v between PrepareSteal and RetireSteal, want 1`, got)
	}
	if !g.RetireSteal(job.ID) {
		t.Fatal("retire refused")
	}
	if p, s := gauge("prepared"), gauge("stolen"); p != 0 || s != 1 {
		t.Errorf("after RetireSteal: prepared %v, stolen %v; want 0 and 1", p, s)
	}
}

// TestScrapeMirrorsJournalAndCacheStats checks the scrape hook: journal
// write counters and survey-cache hit/miss counts surface in
// the registry without any explicit recording call.
func TestScrapeMirrorsJournalAndCacheStats(t *testing.T) {
	dir, err := os.MkdirTemp("", "gyan-obs-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	g := testGalaxy(t, WithJournal(j, "h1"))
	if _, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	g.Run()
	if err := j.Sync(); err != nil { // the counters count written records, not staged ones
		t.Fatal(err)
	}

	snap := g.Observer().Reg.Snapshot()
	st, _ := g.JournalStats()
	if got := snap["gyan_journal_appends_total"]; got != float64(st.Appends) {
		t.Errorf("journal appends mirror = %v, want %d", got, st.Appends)
	}
	hits, misses, _ := g.SurveyCacheStats()
	if got := snap["gyan_smi_cache_misses_total"]; got != float64(misses) {
		t.Errorf("cache miss mirror = %v, want %d", got, misses)
	}
	if got := snap["gyan_smi_cache_hits_total"]; got != float64(hits) {
		t.Errorf("cache hit mirror = %v, want %d", got, hits)
	}
	if misses == 0 {
		t.Errorf("lifecycle should exercise the cache: misses=%d", misses)
	}
}

// TestJournalFsyncObservation checks the journal->observer wiring: fsyncs
// report batch sizes into the histogram.
func TestJournalFsyncObservation(t *testing.T) {
	dir, err := os.MkdirTemp("", "gyan-obs-fsync-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	g := testGalaxy(t, WithJournal(j, "h1"))
	if _, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	g.Run()

	snap := g.Observer().Reg.Snapshot()
	if got := snap["gyan_journal_fsync_batch_records_count"]; got < 1 {
		t.Errorf("fsync batch observations = %v, want >= 1 (durable submit)", got)
	}
	if got := snap["gyan_journal_fsync_batch_records_sum"]; got < 1 {
		t.Errorf("fsync batch records sum = %v, want >= 1", got)
	}
}

// TestConcurrentObsRecordingAndScrape is the PR's -race hammer: submissions,
// kills and fault retries drive Transition from many goroutines while other
// goroutines scrape the registry and read trails. Nothing here asserts much
// — the race detector is the oracle.
func TestConcurrentObsRecordingAndScrape(t *testing.T) {
	plan := faults.NewPlan(11, faults.Rule{
		Match: faults.Match{Op: faults.OpCrash, Devices: []int{0}},
		Fault: faults.Fault{Class: faults.Transient, Msg: "XID 79: GPU fell off the bus"},
		Count: 4,
	})
	g := testGalaxy(t,
		WithFaultPlan(plan),
		WithRetry(faults.Backoff{MaxAttempts: 3, Base: 50 * time.Millisecond}),
		WithQuarantine(faults.NewQuarantine(3, time.Second)),
		WithJobTimeout(time.Minute),
	)
	rs := smallReadSet(t)
	const n = 12
	jobs := make([]*Job, n)
	var submits sync.WaitGroup
	for i := 0; i < n; i++ {
		submits.Add(1)
		go func(i int) {
			defer submits.Done()
			j, err := g.Submit("racon", fastParams(), rs, SubmitOptions{
				User:  fmt.Sprintf("user%d", i%3),
				Delay: time.Duration(i) * 10 * time.Millisecond,
			})
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = j
		}(i)
	}

	// Scrapers race the recorders: Prometheus exposition (which runs the
	// jobs-by-state hook over the job table), snapshot flattening, and trail reads.
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for w := 0; w < 3; w++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				if err := g.Observer().Reg.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				for id := 1; id <= n; id++ {
					g.Trail(id)
				}
			}
		}()
	}

	submits.Wait()
	var kills sync.WaitGroup
	kills.Add(1)
	go func() {
		defer kills.Done()
		for _, j := range jobs[:n/4] {
			g.Kill(j)
		}
	}()
	g.Run()
	kills.Wait()
	g.Run()
	close(stop)
	scrapers.Wait()

	snap := g.Observer().Reg.Snapshot()
	if got := snap[`gyan_jobs_submitted_total{tool="racon"}`]; got != n {
		t.Errorf("submitted = %v, want %d", got, n)
	}
}

// TestSchedulerQueueEventsAreObservedNotJournaled pins both halves of "what
// no fold reads is not written", on each of the three dispatch paths: the
// trail still shows the mapping decision — and, under the scheduler, the park
// at the map instant and the grant at the start instant (a killed waiter its
// removal) — the counters still count them, and the journal carries only the
// three records recovery acts on.
func TestSchedulerQueueEventsAreObservedNotJournaled(t *testing.T) {
	paths := []struct {
		name  string
		build func(t *testing.T, j *journal.Journal) *Galaxy
		// jobs are submitted at one instant; the trail read back is the
		// (waited+1)th job's. kill marks the scheduler path: that job is
		// killed while parked, once all are mapped.
		jobs, waited, kill int
	}{
		{"direct", directPath, 1, 0, 0},
		{"destination slots", slotsPath, 3, 2, 0}, // two slots: job 3 waits
		{"scheduler", schedulerPath, 4, 2, 3},     // two devices: jobs 3 and 4 park
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			dir := t.TempDir()
			j, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			g := p.build(t, j)
			rs := smallReadSet(t)
			var jobs []*Job
			for i := 0; i < p.jobs; i++ {
				job, err := g.Submit("racon", fastParams(), rs, SubmitOptions{})
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, job)
			}
			g.Engine.RunUntil(time.Millisecond) // everyone mapped; started, waiting or parked
			if p.kill > 0 {
				g.Kill(jobs[p.kill])
			}
			g.Run()

			at := func(id int, name, detail string) time.Duration {
				t.Helper()
				tr, _ := g.Trail(id)
				for _, e := range tr.Events {
					if e.Name == name && (detail == "" || e.Detail == detail) {
						return e.At
					}
				}
				t.Fatalf("job %d: no %s/%s event in %+v", id, name, detail, tr.Events)
				return 0
			}
			waited := jobs[p.waited]
			if waited.State != StateOK {
				t.Fatalf("job %d ended %s: %s", waited.ID, waited.State, waited.Info)
			}
			if at(waited.ID, "map", "") != 0 || (p.waited > 0) != (at(waited.ID, "start", "") > 0) {
				t.Errorf("job %d mapped at %v and started at %v; want mapped at submit, started later only if it waited",
					waited.ID, at(waited.ID, "map", ""), at(waited.ID, "start", ""))
			}
			snap := g.Observer().Reg.Snapshot()
			if p.kill > 0 {
				if pk, gr := snap["gyan_sched_parked_total"], snap["gyan_sched_grants_total"]; pk != 4 || gr != 3 {
					t.Errorf("parked/grants = %v/%v, want 4/3", pk, gr)
				}
				if at(waited.ID, "schedule", "park") != at(waited.ID, "map", "") {
					t.Error("park is not at the map instant")
				}
				if at(waited.ID, "queue", "grant") != at(waited.ID, "start", "") {
					t.Error("grant is not at the start instant")
				}
				at(jobs[p.kill].ID, "queue", "remove")
			}
			if got := snap[`gyan_map_decisions_total{destination="`+waited.Destination+`"}`]; got < float64(p.jobs) {
				t.Errorf("map decisions for %q = %v, want at least one per job (%d)", waited.Destination, got, p.jobs)
			}

			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
			recs, _, err := journal.ReplayAll(dir)
			if err != nil {
				t.Fatal(err)
			}
			var kinds []string
			for _, rec := range recs {
				if rec.Job == waited.ID {
					kinds = append(kinds, string(rec.Type))
				}
			}
			if got := strings.Join(kinds, ","); got != "submit,start,complete" {
				t.Errorf("job %d journaled %s, want submit,start,complete", waited.ID, got)
			}
		})
	}
}
