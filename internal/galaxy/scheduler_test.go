package galaxy

import (
	"strings"
	"testing"
	"time"

	"gyan/internal/sched"
	"gyan/internal/workload"
)

// schedGalaxy builds a Galaxy on the 2-GPU paper testbed with a batch
// scheduler in the given configuration.
func schedGalaxy(t *testing.T, cfg sched.Config, opts ...Option) *Galaxy {
	t.Helper()
	opts = append([]Option{WithScheduler(sched.New(cfg))}, opts...)
	return testGalaxy(t, opts...)
}

// overlapping reports whether two jobs' run intervals intersect.
func overlapping(a, b *Job) bool {
	return a.Started < b.Finished && b.Started < a.Finished
}

// sharesDevice reports whether two jobs hold a device in common.
func sharesDevice(a, b *Job) bool {
	for _, da := range a.Devices {
		for _, db := range b.Devices {
			if da == db {
				return true
			}
		}
	}
	return false
}

func TestSchedulerGrantsExclusiveDevices(t *testing.T) {
	g := schedGalaxy(t, sched.Config{})
	rs := smallReadSet(t)
	jobs := make([]*Job, 3)
	for i := range jobs {
		var err error
		jobs[i], err = g.Submit("racon", fastParams(), rs, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	g.Run()
	for i, j := range jobs {
		if j.State != StateOK {
			t.Fatalf("job %d finished %s: %s", i, j.State, j.Info)
		}
		if len(j.Devices) != 1 {
			t.Fatalf("job %d got devices %v, want a gang of 1", i, j.Devices)
		}
	}
	// Three 1-GPU jobs on two devices: concurrent jobs never share one.
	for i := 0; i < len(jobs); i++ {
		for k := i + 1; k < len(jobs); k++ {
			if overlapping(jobs[i], jobs[k]) && sharesDevice(jobs[i], jobs[k]) {
				t.Errorf("jobs %d and %d ran concurrently on device %v",
					i, k, jobs[i].Devices)
			}
		}
	}
	m := g.SchedulerMetrics()
	if m.Submitted != 3 || m.Started != 3 {
		t.Errorf("metrics submitted/started = %d/%d, want 3/3", m.Submitted, m.Started)
	}
}

func TestSchedulerGangAllOrNothing(t *testing.T) {
	g := schedGalaxy(t, sched.Config{})
	rs := smallReadSet(t)
	single, err := g.Submit("racon", fastParams(), rs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gang, err := g.Submit("racon", fastParams(), rs, SubmitOptions{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	for _, j := range []*Job{single, gang} {
		if j.State != StateOK {
			t.Fatalf("job %d finished %s: %s", j.ID, j.State, j.Info)
		}
	}
	if len(gang.Devices) != 2 {
		t.Fatalf("gang job devices = %v, want both GPUs", gang.Devices)
	}
	if gang.VisibleDevices != "0,1" {
		t.Errorf("gang CUDA_VISIBLE_DEVICES = %q", gang.VisibleDevices)
	}
	// The gang can only run with the whole cluster to itself.
	if overlapping(single, gang) {
		t.Errorf("2-GPU gang [%v,%v] overlapped 1-GPU job [%v,%v]",
			gang.Started, gang.Finished, single.Started, single.Finished)
	}
}

func TestSchedulerRejectsOversizedGang(t *testing.T) {
	g := schedGalaxy(t, sched.Config{})
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{GPUs: 3})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateError {
		t.Fatalf("oversized gang finished %s", job.State)
	}
	if !strings.Contains(job.Info, "exceeds") {
		t.Errorf("reject reason = %q", job.Info)
	}
	if m := g.SchedulerMetrics(); m.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", m.Rejected)
	}
}

func TestSchedulerKillDropsQueuedJob(t *testing.T) {
	g := schedGalaxy(t, sched.Config{})
	rs := smallReadSet(t)
	// Fill both devices, then queue a third job and kill it while parked.
	running := make([]*Job, 2)
	for i := range running {
		var err error
		running[i], err = g.Submit("racon", map[string]string{"scale": "0.01"}, rs, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	victim, err := g.Submit("racon", fastParams(), rs, SubmitOptions{Delay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	g.Engine.RunUntil(10 * time.Millisecond)
	if victim.State != StateQueued || !strings.Contains(victim.Info, "awaiting gang") {
		t.Fatalf("victim state %s (%s), want parked in the scheduler", victim.State, victim.Info)
	}
	g.Kill(victim)
	g.Run()
	if victim.State != StateError || victim.Started != 0 {
		t.Fatalf("killed queued job: state %s, started %v", victim.State, victim.Started)
	}
	for i, j := range running {
		if j.State != StateOK {
			t.Fatalf("job %d finished %s: %s", i, j.State, j.Info)
		}
	}
	if m := g.SchedulerMetrics(); m.Started != 2 {
		t.Errorf("started = %d, want 2 (killed job must not start)", m.Started)
	}
}

func TestSchedulerLeavesCPUJobsGreedy(t *testing.T) {
	g := schedGalaxy(t, sched.Config{})
	job, err := g.Submit("seqstats", nil, smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("cpu job finished %s: %s", job.State, job.Info)
	}
	if job.Destination != "local_cpu" {
		t.Errorf("cpu job landed on %q", job.Destination)
	}
	if m := g.SchedulerMetrics(); m.Submitted != 0 {
		t.Errorf("cpu job entered the scheduler queue (%d submitted)", m.Submitted)
	}
}

func TestSchedulerMetricsRecordDepth(t *testing.T) {
	g := schedGalaxy(t, sched.Config{})
	rs := smallReadSet(t)
	for i := 0; i < 4; i++ {
		if _, err := g.Submit("racon", fastParams(), rs, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	g.Run()
	// Four 1-GPU jobs on two devices: at least two jobs queued at the peak.
	if d := g.SchedulerMetrics().MaxDepth(); d < 2 {
		t.Errorf("max queue depth = %d, want >= 2", d)
	}
}

func TestSchedulerWorkflowStepsChain(t *testing.T) {
	// Workflow chaining submits follow-up steps from a completion hook;
	// with the scheduler those steps park and start like any other job.
	g := schedGalaxy(t, sched.Config{})
	rs := smallReadSet(t)
	wr, err := g.SubmitDAG("polish", chain(
		DAGStep{ToolID: "racon", Params: fastParams(), Dataset: rs},
		DAGStep{ToolID: "racon", Params: fastParams(), Transform: func([]*Job) (any, error) {
			return rs, nil
		}},
	), DAGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if wr.State() != StateOK {
		t.Fatalf("workflow finished %s: %s", wr.State(), wr.Info())
	}
	if jobs := chainJobs(wr); len(jobs) != 2 || jobs[1].Started < jobs[0].Finished {
		t.Fatalf("steps did not chain: %d jobs", len(jobs))
	}
}

// A release with nobody queued plants a scheduler cycle that has nothing to
// decide; it must not buy a device survey. With a job parked, the same cycle
// still surveys and starts it at the instant the device frees.
func TestSchedCycleSkipsSurveyWhenIdle(t *testing.T) {
	surveys := func(g *Galaxy) int {
		hits, misses, _ := g.SurveyCacheStats()
		return hits + misses
	}
	submit := func(g *Galaxy, rs *workload.ReadSet) *Job {
		t.Helper()
		j, err := g.Submit("racon", fastParams(), rs, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	rs := smallReadSet(t)

	g := schedGalaxy(t, sched.Config{})
	only := submit(g, rs)
	g.Engine.RunUntil(0)
	if only.State != StateRunning {
		t.Fatalf("job is %s after the t=0 cycle, want running", only.State)
	}
	before := surveys(g)
	g.Run()
	if only.State != StateOK {
		t.Fatalf("job finished %s: %s", only.State, only.Info)
	}
	if got := surveys(g); got != before {
		t.Errorf("release with an empty queue surveyed the devices %d time(s)", got-before)
	}

	g = schedGalaxy(t, sched.Config{})
	a, b, parked := submit(g, rs), submit(g, rs), submit(g, rs)
	g.Engine.RunUntil(0)
	if a.State != StateRunning || b.State != StateRunning || parked.State != StateQueued {
		t.Fatalf("states after the t=0 cycle: %s %s %s, want two running and one queued",
			a.State, b.State, parked.State)
	}
	before = surveys(g)
	g.Run()
	if parked.State != StateOK {
		t.Fatalf("parked job finished %s: %s", parked.State, parked.Info)
	}
	if surveys(g) == before {
		t.Error("release with a parked job did not survey the devices")
	}
	if freed := min(a.Finished, b.Finished); parked.Started != freed {
		t.Errorf("parked job started at %v, want %v, the instant a device freed", parked.Started, freed)
	}
}

// TestAbortedStealKeepsItsRequest prepares a steal of a job that parked
// under the scheduler with a gang of two, a priority and a Delay from t=0,
// then aborts it. Its park instant, not its t=0 submission or the abort
// instant, is its seniority, and the abort must re-submit exactly the
// request the job parked with: the job then starts after R (same class,
// submitted before the park), before Q (submitted after the park, before the
// abort) and on a gang of two.
func TestAbortedStealKeepsItsRequest(t *testing.T) {
	g := schedGalaxy(t, sched.Config{})
	rs := smallReadSet(t)
	advance := func(to time.Duration) {
		g.Engine.RunUntil(to)
		g.Engine.Clock().AdvanceTo(to)
	}
	submit := func(opts SubmitOptions) *Job {
		t.Helper()
		opts.GPUs, opts.Priority = 2, 5
		job, err := g.Submit("racon", fastParams(), rs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	// The blocker holds both devices well past the abort.
	blocker, err := g.Submit("racon", map[string]string{"scale": "0.05"}, rs, SubmitOptions{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := submit(SubmitOptions{Delay: time.Second})
	advance(500 * time.Millisecond)
	r := submit(SubmitOptions{DatasetName: "r"})
	advance(1200 * time.Millisecond)
	if p.State != StateQueued || g.sched.QueueDepth() != 2 {
		t.Fatalf("at 1.2s job %d is %s with %d parked, want it parked beside R", p.ID, p.State, g.sched.QueueDepth())
	}
	prepared := g.PrepareSteal(1, "h2", 1, map[string]bool{"r": true})
	if len(prepared) != 1 || prepared[0].JobID != p.ID {
		t.Fatalf("prepared %+v, want job %d alone", prepared, p.ID)
	}
	advance(1500 * time.Millisecond)
	q := submit(SubmitOptions{})
	advance(2 * time.Second)
	if blocker.State != StateRunning {
		t.Fatalf("blocker is %s at the abort, want running", blocker.State)
	}
	if !g.AbortSteal(p.ID, "thief refused") {
		t.Fatal("the abort was refused")
	}
	g.Run()
	for _, j := range []*Job{blocker, p, q, r} {
		if j.State != StateOK {
			t.Fatalf("job %d finished %s: %s", j.ID, j.State, j.Info)
		}
	}
	if len(p.Devices) != 2 {
		t.Errorf("aborted job ran on %v, want its gang of two", p.Devices)
	}
	if !(r.Started < p.Started && p.Started < q.Started) {
		t.Errorf("starts R=%v P=%v Q=%v, want R, then P at its park-time seniority, then Q",
			r.Started, p.Started, q.Started)
	}
}
