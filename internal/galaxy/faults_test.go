package galaxy

import (
	"strings"
	"testing"
	"time"

	"gyan/internal/faults"
	"gyan/internal/sched"
)

// baselineWallTime measures how long the standard racon test job runs with
// no faults armed, so timeout/stall tests can scale against it instead of
// hardcoding virtual durations.
func baselineWallTime(t *testing.T) time.Duration {
	t.Helper()
	g := testGalaxy(t)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateOK || job.WallTime() <= 0 {
		t.Fatalf("baseline job state=%s wall=%v", job.State, job.WallTime())
	}
	return job.WallTime()
}

func TestTransientExecFaultRetriesAndSucceeds(t *testing.T) {
	plan := faults.NewPlan(1, faults.Rule{
		Match: faults.Match{Op: faults.OpExec, Attempt: 1},
		Fault: faults.Fault{Class: faults.Transient, Msg: "executor died at startup"},
	})
	g := testGalaxy(t,
		WithFaultPlan(plan),
		WithRetry(faults.Backoff{MaxAttempts: 3, Base: time.Second}),
	)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("state = %s (info %q), want ok after retry", job.State, job.Info)
	}
	if len(job.Failures) != 1 || job.Failures[0].Op != faults.OpExec ||
		job.Failures[0].Class != faults.Transient || job.Failures[0].Attempt != 1 {
		t.Fatalf("failure log = %+v", job.Failures)
	}
	if job.Attempt() != 2 {
		t.Errorf("Attempt() = %d, want 2", job.Attempt())
	}
	if plan.Fired() != 1 {
		t.Errorf("plan fired %d faults, want 1", plan.Fired())
	}
}

func TestPermanentFaultDeadLettersDespiteRetryBudget(t *testing.T) {
	plan := faults.NewPlan(1, faults.Rule{
		Match: faults.Match{Op: faults.OpLaunch},
		Fault: faults.Fault{Class: faults.Permanent, Msg: "image layer corrupt"},
	})
	g := testGalaxy(t,
		WithFaultPlan(plan),
		WithRetry(faults.Backoff{MaxAttempts: 5, Base: time.Second}),
	)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t),
		SubmitOptions{Runtime: "docker"})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateDeadLetter {
		t.Fatalf("state = %s (info %q), want dead_letter", job.State, job.Info)
	}
	if len(job.Failures) != 1 || job.Failures[0].Class != faults.Permanent {
		t.Fatalf("failure log = %+v, want one permanent entry", job.Failures)
	}
	if dl := g.DeadLetters(); len(dl) != 1 || dl[0] != job {
		t.Errorf("DeadLetters() = %v", dl)
	}
}

func TestTransientExhaustionDeadLetters(t *testing.T) {
	plan := faults.NewPlan(1, faults.Rule{
		Match: faults.Match{Op: faults.OpExec},
		Fault: faults.Fault{Class: faults.Transient, Msg: "device wedged"},
	})
	g := testGalaxy(t,
		WithFaultPlan(plan),
		WithRetry(faults.Backoff{MaxAttempts: 2, Base: time.Second}),
	)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateDeadLetter {
		t.Fatalf("state = %s, want dead_letter after budget exhaustion", job.State)
	}
	if len(job.Failures) != 2 {
		t.Fatalf("failure log has %d entries, want 2 (one per attempt)", len(job.Failures))
	}
	if !strings.Contains(job.Info, "dead-letter after 2 attempt(s)") {
		t.Errorf("info = %q", job.Info)
	}
}

func TestNoRetryPolicyDeadLettersOnFirstTransient(t *testing.T) {
	plan := faults.NewPlan(1, faults.Rule{
		Match: faults.Match{Op: faults.OpExec},
		Fault: faults.Fault{Class: faults.Transient, Msg: "one bad probe"},
		Count: 1,
	})
	g := testGalaxy(t, WithFaultPlan(plan)) // zero Backoff: single attempt
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateDeadLetter {
		t.Fatalf("state = %s, want dead_letter with no retry budget", job.State)
	}
}

func TestProbeFaultRetriesThroughBackoff(t *testing.T) {
	plan := faults.NewPlan(1, faults.Rule{
		Match: faults.Match{Op: faults.OpProbe},
		Fault: faults.Fault{Class: faults.Transient, Msg: "Unable to determine the device handle"},
		Count: 2,
	})
	g := testGalaxy(t,
		WithFaultPlan(plan),
		WithRetry(faults.Backoff{MaxAttempts: 4, Base: time.Second, Jitter: 0.5}),
	)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("state = %s (info %q), want ok on attempt 3", job.State, job.Info)
	}
	if len(job.Failures) != 2 || job.Failures[1].Op != faults.OpProbe {
		t.Fatalf("failure log = %+v", job.Failures)
	}
	// Both failed probes happened before the job ever held a device, so
	// the quarantine-free run must not have touched job.Devices wrongly.
	if job.Failures[0].At >= job.Started {
		t.Errorf("first failure at %v, after eventual start %v", job.Failures[0].At, job.Started)
	}
}

func TestTimeoutAbortsStalledRunAndRetrySucceeds(t *testing.T) {
	base := baselineWallTime(t)
	plan := faults.NewPlan(1, faults.Rule{
		Match: faults.Match{Op: faults.OpStall, Attempt: 1},
		Fault: faults.Fault{Class: faults.Transient, Msg: "device clock throttled", Stall: 100 * base},
	})
	g := testGalaxy(t,
		WithFaultPlan(plan),
		WithRetry(faults.Backoff{MaxAttempts: 3, Base: time.Second}),
		WithJobTimeout(4*base),
	)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("state = %s (info %q), want ok after timeout retry", job.State, job.Info)
	}
	if len(job.Failures) != 1 || !strings.Contains(job.Failures[0].Msg, "execution timeout") {
		t.Fatalf("failure log = %+v, want one timeout entry", job.Failures)
	}
	// The stalled run was cut at the deadline: the job must finish well
	// before the 100x stall would have let it. (The engine itself still
	// drains the stood-down completion event, so assert on the job.)
	if job.Finished >= 50*base {
		t.Errorf("job finished at %v; the stalled attempt was not cut by the timeout", job.Finished)
	}
}

func TestCrashMidRunRetriesFromScratch(t *testing.T) {
	plan := faults.NewPlan(1, faults.Rule{
		Match: faults.Match{Op: faults.OpCrash, Attempt: 1},
		Fault: faults.Fault{Class: faults.Transient, Msg: "executor segfault"},
	})
	g := testGalaxy(t,
		WithFaultPlan(plan),
		WithRetry(faults.Backoff{MaxAttempts: 3, Base: time.Second}),
	)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("state = %s (info %q), want ok after mid-run crash", job.State, job.Info)
	}
	if len(job.Failures) != 1 || job.Failures[0].Op != faults.OpCrash {
		t.Fatalf("failure log = %+v", job.Failures)
	}
	// The crash fired mid-run, after the first attempt started.
	if job.Failures[0].At <= job.Submitted {
		t.Errorf("crash at %v, not after submission", job.Failures[0].At)
	}
}

func TestQuarantineRoutesRetryAroundBadDevice(t *testing.T) {
	// Every run that touches device 0 crashes; device 1 is healthy. With a
	// 1-fault quarantine the retry must land on device 1 and succeed.
	plan := faults.NewPlan(1, faults.Rule{
		Match: faults.Match{Op: faults.OpCrash, Devices: []int{0}},
		Fault: faults.Fault{Class: faults.Transient, Msg: "XID 79: GPU fell off the bus"},
	})
	q := faults.NewQuarantine(1, 0)
	g := testGalaxy(t,
		WithFaultPlan(plan),
		WithRetry(faults.Backoff{MaxAttempts: 3, Base: time.Second}),
		WithQuarantine(q),
	)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	end := g.Run()
	if job.State != StateOK {
		t.Fatalf("state = %s (info %q), want ok on the healthy device", job.State, job.Info)
	}
	if len(job.Devices) != 1 || job.Devices[0] != 1 {
		t.Fatalf("final devices = %v, want [1]", job.Devices)
	}
	if !q.IsQuarantined(0, end) {
		t.Error("device 0 should be quarantined")
	}
	if q.IsQuarantined(1, end) {
		t.Error("device 1 should not be quarantined")
	}
	spans := q.Spans()
	if len(spans) != 1 || spans[0].Device != 0 || !spans[0].Open() {
		t.Errorf("spans = %+v", spans)
	}
}

// FreeGPUs is the capacity a cluster member gossips: the mapper's survey,
// so a quarantined device is not free even while it sits idle, and the
// quarantine applies to a survey the cache already holds.
func TestFreeGPUsHidesQuarantinedDevice(t *testing.T) {
	q := faults.NewQuarantine(1, 0)
	g := testGalaxy(t, WithQuarantine(q))
	if got := g.FreeGPUs(time.Second); got != 2 {
		t.Fatalf("idle testbed: FreeGPUs = %d, want 2", got)
	}
	q.RecordFault(1, time.Second)
	if got := g.FreeGPUs(2 * time.Second); got != 1 {
		t.Fatalf("GPU 1 quarantined: FreeGPUs = %d, want 1", got)
	}
}

func TestGangGateFaultRetriesUnderScheduler(t *testing.T) {
	plan := faults.NewPlan(1, faults.Rule{
		Match: faults.Match{Op: faults.OpGang},
		Fault: faults.Fault{Class: faults.Transient, Msg: "cgroup device allocation failed"},
		Count: 1,
	})
	s := sched.New(sched.Config{})
	g := testGalaxy(t,
		WithScheduler(s),
		WithFaultPlan(plan),
		WithRetry(faults.Backoff{MaxAttempts: 3, Base: time.Second}),
	)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{GPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("state = %s (info %q), want ok after gate retry", job.State, job.Info)
	}
	if len(job.Failures) != 1 || job.Failures[0].Op != faults.OpGang {
		t.Fatalf("failure log = %+v", job.Failures)
	}
	if m := g.SchedulerMetrics(); m.GateDenied != 1 {
		t.Errorf("GateDenied = %d, want 1", m.GateDenied)
	}
}

func TestSchedulerRetryPreservesQueueSeniority(t *testing.T) {
	// Job A (submitted first) is gate-faulted and requeues after backoff,
	// while blocker C grabs the whole cluster for longer than the backoff.
	// Junior job B arrives while C runs. When C releases the devices, both
	// A and B are queued — and A must start first, because a retry keeps
	// the job's original submission time.
	plan := faults.NewPlan(1, faults.Rule{
		Match: faults.Match{Op: faults.OpGang, Job: 1},
		Fault: faults.Fault{Class: faults.Transient, Msg: "allocation glitch"},
		Count: 1,
	})
	s := sched.New(sched.Config{})
	g := testGalaxy(t,
		WithScheduler(s),
		WithFaultPlan(plan),
		WithRetry(faults.Backoff{MaxAttempts: 3, Base: time.Second}),
	)
	rs := smallReadSet(t)
	a, err := g.Submit("racon", fastParams(), rs, SubmitOptions{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Blocker: ~10x the standard run, so it outlasts A's 1s backoff.
	c, err := g.Submit("racon", map[string]string{"scale": "0.01"}, rs, SubmitOptions{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Submit("racon", fastParams(), rs, SubmitOptions{GPUs: 2, Delay: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if a.State != StateOK || b.State != StateOK || c.State != StateOK {
		t.Fatalf("states = %s/%s/%s (info %q / %q / %q)",
			a.State, b.State, c.State, a.Info, b.Info, c.Info)
	}
	if len(a.Failures) != 1 || a.Failures[0].Op != faults.OpGang {
		t.Fatalf("A's failure log = %+v", a.Failures)
	}
	// All three want the full 2-GPU gang, so starts are strictly ordered:
	// C (granted when A was denied), then senior A, then junior B.
	if !(c.Started < a.Started && a.Started < b.Started) {
		t.Errorf("start order C=%v A=%v B=%v: retry lost A's seniority",
			c.Started, a.Started, b.Started)
	}
}

func TestWorkflowFailsWhenStepDeadLetters(t *testing.T) {
	plan := faults.NewPlan(1, faults.Rule{
		Match: faults.Match{Op: faults.OpExec},
		Fault: faults.Fault{Class: faults.Permanent, Msg: "driver mismatch"},
	})
	g := testGalaxy(t, WithFaultPlan(plan))
	rs := smallReadSet(t)
	wr, err := g.SubmitDAG("polish-then-stats", chain(
		DAGStep{ToolID: "racon", Params: fastParams(), Dataset: rs},
		DAGStep{ToolID: "seqstats", Params: map[string]string{}, Dataset: rs},
	), DAGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if wr.State() != StateError {
		t.Fatalf("workflow state = %s, want error after dead-lettered step", wr.State())
	}
	jobs := chainJobs(wr)
	if len(jobs) != 1 {
		t.Fatalf("workflow submitted %d jobs; step 2 must not run after a dead-letter", len(jobs))
	}
	if jobs[0].State != StateDeadLetter {
		t.Errorf("step 1 state = %s", jobs[0].State)
	}
}

// failExec fails the given jobs' executor calls with a permanent fault: a
// run-time failure, which the submit check cannot refuse in advance.
func failExec(jobs ...int) Option {
	rules := make([]faults.Rule, len(jobs))
	for i, id := range jobs {
		rules[i] = faults.Rule{
			Match: faults.Match{Op: faults.OpExec, Job: id},
			Fault: faults.Fault{Class: faults.Permanent, Msg: "injected exec failure"},
		}
	}
	return WithFaultPlan(faults.NewPlan(1, rules...))
}

// TestTransientRetryKeepsDevicePin retries a direct-path job the user pinned
// to GPU 1 (SubmitOptions.GPURequest) after one transient executor fault.
// Unpinned, the mapper hands racon both GPUs; the retry must run on the pin.
func TestTransientRetryKeepsDevicePin(t *testing.T) {
	plan := faults.NewPlan(1, faults.Rule{
		Match: faults.Match{Op: faults.OpExec, Attempt: 1},
		Fault: faults.Fault{Class: faults.Transient, Msg: "executor died at startup"},
	})
	g := testGalaxy(t,
		WithFaultPlan(plan),
		WithRetry(faults.Backoff{MaxAttempts: 3, Base: time.Second}),
	)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{GPURequest: "1"})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("state = %s (info %q), want ok after retry", job.State, job.Info)
	}
	if len(job.Failures) != 1 || job.Failures[0].Op != faults.OpExec || job.Attempt() != 2 {
		t.Fatalf("failure log = %+v, attempt %d", job.Failures, job.Attempt())
	}
	if len(job.Devices) != 1 || job.Devices[0] != 1 || job.VisibleDevices != "1" {
		t.Errorf("retry ran on %v with CUDA_VISIBLE_DEVICES=%q, want [1] and \"1\"", job.Devices, job.VisibleDevices)
	}
}
