package galaxy

import (
	"testing"
	"time"
)

func TestKillRunningJobFreesDevices(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	job, err := g.Submit("racon", map[string]string{"scale": "0.05"}, rs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Kill mid-run: the job's modeled duration is many seconds; schedule
	// the kill well inside it.
	g.Engine.After(2*time.Second, func(time.Duration) { g.Kill(job) })
	g.Run()

	if job.State != StateError || job.Info != "killed by user" {
		t.Fatalf("killed job state %s (%s)", job.State, job.Info)
	}
	if job.Finished != 2*time.Second {
		t.Errorf("killed at %v, want 2s", job.Finished)
	}
	for _, d := range g.Cluster.Devices() {
		if d.ProcessCount() != 0 {
			t.Errorf("device %d still has processes after kill", d.Minor())
		}
		if got := d.UsedMemoryBytes() / (1 << 20); got != 63 {
			t.Errorf("device %d holds %d MiB after kill", d.Minor(), got)
		}
	}
}

func TestKillReleasesSlotForQueuedJob(t *testing.T) {
	g := New(nil, WithJobConf(slottedConf(t, 2)))
	if err := g.RegisterDefaultTools(); err != nil {
		t.Fatal(err)
	}
	rs := smallReadSet(t)
	params := map[string]string{"scale": "0.05"}
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := g.Submit("racon", params, rs,
			SubmitOptions{Delay: time.Duration(i) * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// Kill the first running job early; the queued third job must then
	// get its slot and complete.
	g.Engine.After(time.Second, func(time.Duration) { g.Kill(jobs[0]) })
	g.Run()
	if jobs[0].State != StateError {
		t.Fatalf("killed job state %s", jobs[0].State)
	}
	for _, j := range jobs[1:] {
		if j.State != StateOK {
			t.Fatalf("job %d finished %s: %s", j.ID, j.State, j.Info)
		}
	}
	if jobs[2].Started >= jobs[2].Finished {
		t.Error("queued job never ran after the kill freed a slot")
	}
}

func TestKillQueuedJobNeverStarts(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	job, err := g.Submit("racon", fastParams(), rs,
		SubmitOptions{Delay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	g.Engine.After(time.Second, func(time.Duration) { g.Kill(job) })
	g.Run()
	if job.State != StateError || job.PID != 0 {
		t.Fatalf("queued kill: state %s, pid %d", job.State, job.PID)
	}
}

func TestKillFinishedJobIsNoOp(t *testing.T) {
	g := testGalaxy(t)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("job state %s", job.State)
	}
	finished := job.Finished
	g.Kill(job)
	if job.State != StateOK || job.Finished != finished {
		t.Fatal("Kill mutated a finished job")
	}
	g.Kill(nil) // must not panic
}

func TestKillRetractsFutureDeviceWork(t *testing.T) {
	g := testGalaxy(t)
	rs := smallReadSet(t)
	job, err := g.Submit("racon", map[string]string{"scale": "0.05"}, rs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Engine.After(2*time.Second, func(time.Duration) { g.Kill(job) })
	g.Run()

	// No device may report kernel activity after the kill instant.
	for _, d := range g.Cluster.Devices() {
		for _, span := range d.BusySpans() {
			if span.End > 2*time.Second {
				t.Errorf("device %d busy span %v-%v survives the kill at 2s",
					d.Minor(), span.Start, span.End)
			}
		}
		if u := d.UtilizationOver(3*time.Second, 10*time.Second); u != 0 {
			t.Errorf("device %d utilization %.1f%% after kill", d.Minor(), u)
		}
	}
}
