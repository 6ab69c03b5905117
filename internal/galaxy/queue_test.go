package galaxy

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gyan/internal/jobconf"
)

// slottedConf builds a job_conf whose GPU destination admits only slots
// concurrent jobs.
func slottedConf(t *testing.T, slots int) *jobconf.Config {
	t.Helper()
	conf, err := jobconf.Parse(fmt.Sprintf(`<job_conf>
  <plugins>
    <plugin id="local" type="runner" workers="4"/>
  </plugins>
  <destinations default="dynamic">
    <destination id="dynamic" runner="dynamic"/>
    <destination id="local_gpu" runner="local">
      <param id="gpu_enabled">true</param>
      <param id="slots">%d</param>
    </destination>
    <destination id="local_cpu" runner="local"/>
  </destinations>
</job_conf>`, slots))
	if err != nil {
		t.Fatal(err)
	}
	return conf
}

func TestDestinationSlotsQueueJobs(t *testing.T) {
	g := New(nil, WithJobConf(slottedConf(t, 2)))
	if err := g.RegisterDefaultTools(); err != nil {
		t.Fatal(err)
	}
	rs := smallReadSet(t)
	params := map[string]string{"scale": "0.01"} // each job runs a few seconds
	jobs := make([]*Job, 3)
	for i := range jobs {
		var err error
		jobs[i], err = g.Submit("racon", params, rs, SubmitOptions{
			Delay: time.Duration(i) * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Shortly after all submissions, two jobs run and the third waits.
	g.Engine.RunUntil(10 * time.Millisecond)
	runningN, queuedN := 0, 0
	for _, j := range jobs {
		switch j.State {
		case StateRunning:
			runningN++
		case StateQueued:
			queuedN++
			if !strings.Contains(j.Info, "slots busy") {
				t.Errorf("queued job info = %q", j.Info)
			}
		}
	}
	if runningN != 2 || queuedN != 1 {
		t.Fatalf("mid-run states: %d running, %d queued; want 2/1", runningN, queuedN)
	}

	g.Run()
	for i, j := range jobs {
		if j.State != StateOK {
			t.Fatalf("job %d finished %s: %s", i, j.State, j.Info)
		}
	}
	// The third job starts only after one of the first two completes.
	firstDone := jobs[0].Finished
	if jobs[1].Finished < firstDone {
		firstDone = jobs[1].Finished
	}
	if jobs[2].Started < firstDone {
		t.Errorf("queued job started at %v before a slot freed at %v",
			jobs[2].Started, firstDone)
	}
}

// TestKillWhileWaitingHandsSlotOn: a job killed while parked behind a
// saturated destination must not swallow the slot the next release offers it.
func TestKillWhileWaitingHandsSlotOn(t *testing.T) {
	g := New(nil, WithJobConf(slottedConf(t, 1)))
	if err := g.RegisterDefaultTools(); err != nil {
		t.Fatal(err)
	}
	rs := smallReadSet(t)
	jobs := make([]*Job, 3)
	for i := range jobs {
		var err error
		jobs[i], err = g.Submit("racon", map[string]string{"scale": "0.01"}, rs, SubmitOptions{
			Delay: time.Duration(i) * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	g.Engine.After(10*time.Millisecond, func(time.Duration) { g.Kill(jobs[1]) })
	g.Run()
	if jobs[0].State != StateOK || jobs[1].State != StateError || jobs[1].Started != 0 {
		t.Fatalf("first %s, killed waiter %s (started %v); want ok, error, never started",
			jobs[0].State, jobs[1].State, jobs[1].Started)
	}
	if jobs[2].State != StateOK {
		t.Fatalf("job behind the killed waiter ended %s (%s): the freed slot went to nobody",
			jobs[2].State, jobs[2].Info)
	}
	if jobs[2].Started < jobs[0].Finished {
		t.Errorf("third job started at %v, before the only slot freed at %v", jobs[2].Started, jobs[0].Finished)
	}
}

func TestFailedJobReleasesSlot(t *testing.T) {
	g := New(nil, WithJobConf(slottedConf(t, 2)), failExec(1, 2))
	if err := g.RegisterDefaultTools(); err != nil {
		t.Fatal(err)
	}
	rs := smallReadSet(t)
	// Two failing jobs occupy both slots momentarily; a third healthy job
	// must still run.
	for i := 0; i < 2; i++ {
		if _, err := g.Submit("racon", fastParams(),
			rs, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	healthy, err := g.Submit("racon", fastParams(), rs,
		SubmitOptions{Delay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if healthy.State != StateOK {
		t.Fatalf("healthy job finished %s: %s", healthy.State, healthy.Info)
	}
}

func TestUnlimitedDestinationNeverQueues(t *testing.T) {
	g := testGalaxy(t) // default conf: no slots params
	rs := smallReadSet(t)
	jobs := make([]*Job, 5)
	for i := range jobs {
		var err error
		jobs[i], err = g.Submit("racon", fastParams(), rs, SubmitOptions{
			Delay: time.Duration(i) * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	g.Engine.RunUntil(20 * time.Microsecond)
	for i, j := range jobs {
		if j.State == StateQueued && strings.Contains(j.Info, "slots") {
			t.Errorf("job %d queued on an unlimited destination", i)
		}
	}
	g.Run()
}

func TestAnonymousUserDefault(t *testing.T) {
	g := testGalaxy(t)
	job, err := g.Submit("seqstats", nil, smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.User != "anonymous" {
		t.Fatalf("default user = %q", job.User)
	}
}

// resubmitConf routes failures on the GPU destination to the CPU one.
func resubmitConf(t *testing.T) *jobconf.Config {
	t.Helper()
	conf, err := jobconf.Parse(`<job_conf>
  <plugins><plugin id="local" type="runner" workers="4"/></plugins>
  <destinations default="dynamic">
    <destination id="dynamic" runner="dynamic"/>
    <destination id="local_gpu" runner="local">
      <param id="gpu_enabled">true</param>
      <param id="resubmit_destination">local_cpu</param>
    </destination>
    <destination id="local_cpu" runner="local"/>
  </destinations>
</job_conf>`)
	if err != nil {
		t.Fatal(err)
	}
	return conf
}

func TestOOMJobResubmitsToCPUDestination(t *testing.T) {
	// The OOM scenario of TestDeviceOOMFailsJobAndSparesOthers, but with
	// resubmission configured: the overflowing bonito must rerun on the
	// CPU destination and succeed.
	g := New(nil, WithJobConf(resubmitConf(t)))
	if err := g.RegisterDefaultTools(); err != nil {
		t.Fatal(err)
	}
	sq := smallSquiggles(t)
	if _, err := g.Submit("racon", map[string]string{"scale": "0.2"},
		smallReadSet(t), SubmitOptions{GPURequest: "1"}); err != nil {
		t.Fatal(err)
	}
	jobs := make([]*Job, 4)
	for i := range jobs {
		var err error
		jobs[i], err = g.Submit("bonito", fastParams(), sq, SubmitOptions{
			GPURequest: "0",
			Delay:      time.Duration(i+1) * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	g.Run()

	resubmitted := 0
	for _, j := range jobs {
		if j.State != StateOK {
			t.Fatalf("job %d finished %s: %s", j.ID, j.State, j.Info)
		}
		if j.Resubmitted > 0 {
			resubmitted++
			if j.Destination != "local_cpu" {
				t.Errorf("resubmitted job landed on %q, want local_cpu", j.Destination)
			}
			if j.GPUEnabled {
				t.Error("resubmitted CPU job still GPU-enabled")
			}
			if !strings.Contains(j.CommandLine, "cpu") {
				t.Errorf("resubmitted command = %q, want the CPU branch", j.CommandLine)
			}
		}
	}
	if resubmitted == 0 {
		t.Fatal("no job was resubmitted despite guaranteed OOM")
	}
}

func TestDependencyInstallChargedOnce(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	first, err := g.Submit("racon", fastParams(), rs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := g.Submit("racon", fastParams(), rs,
		SubmitOptions{Delay: time.Minute}) // after the first completes
	if err != nil {
		t.Fatal(err)
	}
	containerized, err := g.Submit("racon", fastParams(), rs,
		SubmitOptions{Runtime: "docker", Delay: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	for _, j := range []*Job{first, second, containerized} {
		if j.State != StateOK {
			t.Fatalf("job %d state %s: %s", j.ID, j.State, j.Info)
		}
	}
	if first.DependencyInstall <= 0 {
		t.Error("first racon job paid no dependency install")
	}
	if second.DependencyInstall != 0 {
		t.Errorf("second racon job paid %v for cached environment", second.DependencyInstall)
	}
	if containerized.DependencyInstall != 0 {
		t.Errorf("containerized job resolved conda deps: %v", containerized.DependencyInstall)
	}
	// The install time is part of the first job's wall time.
	if first.WallTime() <= second.WallTime() {
		t.Errorf("install not reflected in wall time: %v vs %v",
			first.WallTime(), second.WallTime())
	}
}
