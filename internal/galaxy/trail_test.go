package galaxy

import (
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"gyan/internal/faults"
	"gyan/internal/journal"
)

// names lists a trail's event names, comma-joined.
func names(tr Trace) string {
	var out []string
	for _, e := range tr.Events {
		out = append(out, e.Name)
	}
	return strings.Join(out, ",")
}

// trailOrFail returns job id's trail, failing the test when it has none.
func trailOrFail(t *testing.T, g *Galaxy, id int) Trace {
	t.Helper()
	tr, ok := g.Trail(id)
	if !ok {
		t.Fatalf("job %d has no trail", id)
	}
	return tr
}

func TestDeriveSegments(t *testing.T) {
	s := time.Second
	retried := []Event{
		{Name: "submit", At: 0},
		{Name: "map", At: 0, Detail: "gpu_k80"},
		{Name: "start", At: 2 * s, Attempt: 1},
		{Name: "attempt_fail", At: 5 * s, Attempt: 1, Detail: "transient"},
		{Name: "start", At: 6 * s, Attempt: 2},
		{Name: "complete", At: 9 * s, Detail: "ok"},
	}
	cases := []struct {
		name   string
		events []Event
		want   []Segment
	}{
		{"queue wait, two runs and the backoff between them", retried, []Segment{
			{Name: "queue_wait", From: 0, Dur: 2 * s},
			{Name: "run", From: 2 * s, Dur: 3 * s},
			{Name: "retry_backoff", From: 5 * s, Dur: s},
			{Name: "run", From: 6 * s, Dur: 3 * s},
		}},
		{"events out of order are read in time order", []Event{
			retried[5], retried[0], retried[4], retried[3], retried[2],
		}, []Segment{
			{Name: "queue_wait", From: 0, Dur: 2 * s},
			{Name: "run", From: 2 * s, Dur: 3 * s},
			{Name: "retry_backoff", From: 5 * s, Dur: s},
			{Name: "run", From: 6 * s, Dur: 3 * s},
		}},
		{"a dead letter closes the run", []Event{
			{Name: "submit", At: s},
			{Name: "start", At: 3 * s, Attempt: 1},
			{Name: "dead_letter", At: 4 * s, Detail: "ECC"},
		}, []Segment{
			{Name: "queue_wait", From: s, Dur: 2 * s},
			{Name: "run", From: 3 * s, Dur: s},
		}},
		{"a job still queued has no segment", []Event{{Name: "submit", At: s}}, nil},
		{"a running job has only its queue wait", []Event{
			{Name: "submit", At: 0}, {Name: "start", At: s},
		}, []Segment{{Name: "queue_wait", From: 0, Dur: s}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := deriveSegments(c.events); !slices.Equal(got, c.want) {
				t.Errorf("segments = %+v, want %+v", got, c.want)
			}
		})
	}
}

// TestTrailMatchesTheJobsLifecycle runs a job through a retry and checks its
// trail step by step: names, attempts, details and the derived segments.
func TestTrailMatchesTheJobsLifecycle(t *testing.T) {
	plan := faults.NewPlan(7, faults.Rule{
		Match: faults.Match{Op: faults.OpExec, Job: 1},
		Fault: faults.Fault{Class: faults.Transient, Msg: "XID 79"},
		Count: 1,
	})
	g := testGalaxy(t, WithFaultPlan(plan), WithRetry(faults.Backoff{MaxAttempts: 3, Base: 50 * time.Millisecond}))
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	tr := trailOrFail(t, g, job.ID)
	if got, want := names(tr), "submit,map,start,attempt_fail,map,start,complete"; got != want {
		t.Fatalf("trail %s, want %s", got, want)
	}
	if tr.Job != job.ID || tr.Tool != "racon" {
		t.Errorf("trail names job %d tool %q", tr.Job, tr.Tool)
	}
	want := map[int]Event{
		0: {Name: "submit", At: job.Submitted},
		2: {Name: "start", At: tr.Events[2].At, Attempt: 1, Detail: job.Destination},
		3: {Name: "attempt_fail", At: job.Failures[0].At, Attempt: 1, Detail: "transient"},
		5: {Name: "start", At: job.Started, Attempt: 2, Detail: job.Destination},
		6: {Name: "complete", At: job.Finished, Detail: "ok"},
	}
	for i, w := range want {
		if e := tr.Events[i]; e != w {
			t.Errorf("step %d = %+v, want %+v", i, e, w)
		}
	}
	var segs []string
	for _, s := range tr.Segments {
		segs = append(segs, s.Name)
	}
	if got := strings.Join(segs, ","); got != "queue_wait,run,retry_backoff,run" {
		t.Errorf("segments %s", got)
	}
}

// TestStealPhasesAreInTheTrail checks that each phase of a steal is a step:
// on the victim a retire or an abort closes the prepare, and the thief's
// trail starts with the transfer.
func TestStealPhasesAreInTheTrail(t *testing.T) {
	t.Run("retire", func(t *testing.T) {
		g, _, job := stealVictim(t)
		if !g.RetireSteal(job.ID) {
			t.Fatal("retire refused")
		}
		ev := trailOrFail(t, g, job.ID).Events
		if len(ev) < 2 {
			t.Fatalf("trail %+v", ev)
		}
		for i, name := range []string{"steal_prepare", "steal_retire"} {
			if e := ev[len(ev)-2+i]; e.Name != name || e.Detail != "h2" {
				t.Errorf("step %d from the end = %+v, want %s naming the thief h2", 2-i, e, name)
			}
		}
	})
	t.Run("abort", func(t *testing.T) {
		g, _, job := stealVictim(t)
		if !g.AbortSteal(job.ID, "thief refused") {
			t.Fatal("abort refused")
		}
		g.Run()
		tr := trailOrFail(t, g, job.ID)
		got := names(tr)
		abort := strings.Index(got, "steal_prepare,steal_abort")
		if abort < 0 || !strings.Contains(got[abort:], ",start,") {
			t.Errorf("trail %s: want steal_prepare, steal_abort, then a new start", got)
		}
		for _, e := range tr.Events {
			if strings.HasPrefix(e.Name, "steal_") && e.Detail != "h2" {
				t.Errorf("%s names %q, want the thief h2", e.Name, e.Detail)
			}
		}
	})
	t.Run("accept", func(t *testing.T) {
		thief := testGalaxy(t)
		thief.RegisterDataset("reads", smallReadSet(t))
		job, err := thief.AcceptTransfer("h1", journal.Record{
			Type: journal.TypeSubmit, Job: 4, Tool: "racon", Params: fastParams(), Dataset: "reads",
			Submitted: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		thief.Run()
		ev := trailOrFail(t, thief, job.ID).Events
		if len(ev) < 2 || ev[0].Name != "submit" || ev[1].Name != "adopt" || ev[1].Detail != "h1" {
			t.Errorf("trail %+v, want submit then adopt naming the victim h1", ev)
		}
	})
}

// TestTrailIsKeptForEveryJob checks that the first job's trail is still
// served after thousands of later jobs: a trail lives on its job.
func TestTrailIsKeptForEveryJob(t *testing.T) {
	g := stubGalaxy(t, 5001)
	tr := trailOrFail(t, g, 1)
	if got := names(tr); got != "submit,map,start,complete" {
		t.Errorf("job 1's trail after 5 000 later jobs: %s", got)
	}
	if _, ok := g.Trail(5002); ok {
		t.Error("a job that was never submitted has a trail")
	}
}

// TestScrapeAllocatesNothingPerJob checks that the jobs-by-state gauge
// counts the job table in place: a scrape of 1 000 finished jobs allocates
// no more than a scrape of 10.
func TestScrapeAllocatesNothingPerJob(t *testing.T) {
	if few, many := scrapeAllocs(t, 10), scrapeAllocs(t, 1000); many > few {
		t.Errorf("a scrape allocates %v times with 1 000 jobs and %v with 10", many, few)
	}
}

// TestScrapeAllocatesAHandful bounds what one scrape of the engine's whole
// exposition allocates: its one output buffer, and next to nothing in the
// scrape hook. Every series renders its label text once, when it is created.
func TestScrapeAllocatesAHandful(t *testing.T) {
	const bound = 4
	if n := scrapeAllocs(t, 10); n > bound {
		t.Errorf("a scrape allocates %v times, want at most %d", n, bound)
	}
}

// scrapeAllocs is what one scrape of the registry of an engine that has run
// n stub jobs allocates.
func scrapeAllocs(t *testing.T, n int) float64 {
	t.Helper()
	g := stubGalaxy(t, n)
	return testing.AllocsPerRun(20, func() {
		if err := g.Observer().Reg.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWorkflowTrailsGroupMemberJobs checks a workflow's trails: its own
// member jobs only, in submit order, each tagged with its step and with
// derived segments.
func TestWorkflowTrailsGroupMemberJobs(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	chain := func(name string) *WorkflowRun {
		wr, err := g.SubmitDAG(name, []DAGStep{
			{ID: "align", ToolID: "racon", Params: fastParams(), Dataset: rs},
			{ID: "call", ToolID: "racon", Params: fastParams(), After: []string{"align"}},
		}, DAGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return wr
	}
	// Two workflows interleaved, plus a loose job.
	wf1, wf2 := chain("one"), chain("two")
	if _, err := g.Submit("racon", fastParams(), rs, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	g.Run()
	trails := wf1.Trails()
	if len(trails) != 2 {
		t.Fatalf("%d trails for workflow %d, want 2", len(trails), wf1.ID)
	}
	if trails[0].Step != "align" || trails[1].Step != "call" {
		t.Errorf("steps out of submit order: %s, %s", trails[0].Step, trails[1].Step)
	}
	for _, tr := range trails {
		if tr.Workflow != wf1.ID {
			t.Errorf("job %d tagged workflow %d, want %d", tr.Job, tr.Workflow, wf1.ID)
		}
		if len(tr.Segments) == 0 {
			t.Errorf("job %d trail has no derived segments", tr.Job)
		}
	}
	if n := len(wf2.Trails()); n != 2 {
		t.Errorf("workflow %d has %d trails, want 2", wf2.ID, n)
	}
}

// stubGalaxy is an engine that has run n seqstats jobs through a stub
// executor: a fixed 50 ms of virtual time and no compute.
func stubGalaxy(t *testing.T, n int) *Galaxy {
	t.Helper()
	g := testGalaxy(t)
	b, err := g.Tool("seqstats")
	if err != nil {
		t.Fatal(err)
	}
	b.Exec = func(ExecRequest) (*ExecResult, error) {
		return &ExecResult{Output: "stub", Total: 50 * time.Millisecond}, nil
	}
	rs := smallReadSet(t)
	for i := 0; i < n; i++ {
		if _, err := g.Submit("seqstats", nil, rs, SubmitOptions{}); err != nil {
			t.Fatalf("job %d: %v", i+1, err)
		}
	}
	g.Run()
	return g
}
