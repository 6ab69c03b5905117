package galaxy

import (
	"strings"
	"testing"
	"time"

	"gyan/internal/core"
	"gyan/internal/gpu"
	"gyan/internal/tools/racon"
	"gyan/internal/workload"
)

func testGalaxy(t *testing.T, opts ...Option) *Galaxy {
	t.Helper()
	g := New(nil, opts...)
	if err := g.RegisterDefaultTools(); err != nil {
		t.Fatal(err)
	}
	return g
}

func smallReadSet(t *testing.T) *workload.ReadSet {
	t.Helper()
	rs, err := workload.GenerateLongReads(workload.LongReadConfig{
		Name: "g", Seed: 5, RefLen: 2000, ReadLen: 300, Coverage: 8,
		SubRate: 0.02, InsRate: 0.03, DelRate: 0.03, BackboneErrorRate: 0.04,
		NominalBytes: 17 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func smallSquiggles(t *testing.T) *workload.SquiggleSet {
	t.Helper()
	set, err := workload.GenerateSquiggles(workload.SquiggleConfig{
		Name: "g", Seed: 6, Reads: 5, BasesPerRead: 100,
		SamplesPerBase: 6, NoiseSigma: 0.03, NominalBytes: 1536 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// fastParams keeps the cost model small so event timelines stay short.
func fastParams() map[string]string {
	return map[string]string{"scale": "0.001"}
}

func TestSubmitRunsGPUJobEndToEnd(t *testing.T) {
	g := testGalaxy(t)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateQueued {
		t.Fatalf("state after submit = %s", job.State)
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("job finished in state %s: %s", job.State, job.Info)
	}
	if !job.GPUEnabled {
		t.Error("racon on idle 2-GPU testbed did not get GPU placement")
	}
	if job.Destination != "local_gpu" {
		t.Errorf("destination = %s", job.Destination)
	}
	if !strings.Contains(job.CommandLine, "racon_gpu") {
		t.Errorf("rendered command chose wrong executable: %s", job.CommandLine)
	}
	if job.Result == nil || job.Result.Detail == nil {
		t.Fatal("no result attached")
	}
	if job.WallTime() <= 0 {
		t.Error("no virtual wall time recorded")
	}
	// Devices must be released after completion.
	for _, d := range g.Cluster.Devices() {
		if d.ProcessCount() != 0 {
			t.Errorf("device %d still has processes after job completion", d.Minor())
		}
	}
}

func TestCPUOnlyToolStaysOnCPU(t *testing.T) {
	g := testGalaxy(t)
	job, err := g.Submit("seqstats", nil, smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("job state %s: %s", job.State, job.Info)
	}
	if job.GPUEnabled || job.Destination != "local_cpu" {
		t.Fatalf("CPU tool placed at %s (gpu=%v)", job.Destination, job.GPUEnabled)
	}
}

func TestGPUJobFallsBackToCPUOnGPUlessHost(t *testing.T) {
	// Build a "cluster" whose survey comes back empty by masking the
	// mapper's view: easiest honest approximation is a cluster whose
	// devices are all occupied and a memory policy... Instead, verify
	// via the wrapper-level CPU branch: disable GPU by submitting with
	// an explicit CPU-only conf destination is equivalent. Here we
	// simulate nvidia-smi absence with an empty survey through the
	// mapper directly in core's tests; at the galaxy level we assert
	// the rendered CPU branch when GPUs exist but the tool lacks the
	// requirement (covered above). This test instead checks that a
	// GPU-enabled render picks racon_gpu and a CPU render picks racon.
	g := testGalaxy(t)
	rs := smallReadSet(t)
	gpuJob, err := g.Submit("racon", fastParams(), rs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cpuJob, err := g.Submit("seqstats", nil, rs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if !strings.Contains(gpuJob.CommandLine, "racon_gpu") {
		t.Errorf("gpu job command: %s", gpuJob.CommandLine)
	}
	if strings.Contains(cpuJob.CommandLine, "racon") {
		t.Errorf("cpu job command: %s", cpuJob.CommandLine)
	}
}

func TestGPUToolOnGPUlessHostRunsOnCPU(t *testing.T) {
	// A cluster with zero devices: nvidia-smi reports nothing and the
	// dynamic rule must fall back to the CPU destination without user
	// involvement (the paper's Challenge II requirement).
	cluster := gpu.NewCluster(gpu.TeslaGK210(), 0, nil)
	g := New(cluster)
	if err := g.RegisterDefaultTools(); err != nil {
		t.Fatal(err)
	}
	job, err := g.Submit("racon", fastParams(), smallReadSet(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("job state %s: %s", job.State, job.Info)
	}
	if job.GPUEnabled {
		t.Error("GALAXY_GPU_ENABLED set on GPU-less host")
	}
	if job.Destination != "local_cpu" {
		t.Errorf("destination = %s, want local_cpu", job.Destination)
	}
	res := job.Result.Detail.(*racon.Result)
	if res.GPUUsed {
		t.Error("tool reports GPU execution on GPU-less host")
	}
	if res.PolishedIdentity <= res.DraftIdentity {
		t.Error("CPU fallback did not polish")
	}
}

func TestContainerizedJobAssemblesDockerCommand(t *testing.T) {
	g := testGalaxy(t)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t),
		SubmitOptions{Runtime: "docker"})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("job state %s: %s", job.State, job.Info)
	}
	cmd := strings.Join(job.ContainerCommand, " ")
	for _, want := range []string{"docker run", "--gpus all",
		"-e GALAXY_GPU_ENABLED=true", "gulsumgudukbay/racon_dockerfile", "racon_gpu"} {
		if !strings.Contains(cmd, want) {
			t.Errorf("container command missing %q: %s", want, cmd)
		}
	}
	if !strings.Contains(cmd, "CUDA_VISIBLE_DEVICES="+job.VisibleDevices) {
		t.Errorf("container env lacks CUDA_VISIBLE_DEVICES: %s", cmd)
	}
	res := job.Result.Detail.(*racon.Result)
	if res.Timing.ContainerLaunch != 600*time.Millisecond {
		t.Errorf("container launch cost = %v", res.Timing.ContainerLaunch)
	}
}

func TestContainerizedSingularityCommand(t *testing.T) {
	g := testGalaxy(t)
	job, err := g.Submit("racon", fastParams(), smallReadSet(t),
		SubmitOptions{Runtime: "singularity"})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("job state %s: %s", job.State, job.Info)
	}
	cmd := strings.Join(job.ContainerCommand, " ")
	if !strings.Contains(cmd, "--nv") {
		t.Errorf("singularity command missing --nv: %s", cmd)
	}
	if strings.Contains(cmd, ":rw") {
		t.Errorf("singularity --nv launch kept rw mount flag: %s", cmd)
	}
}

func TestSubmitUnknownToolOrRuntime(t *testing.T) {
	g := testGalaxy(t)
	if _, err := g.Submit("nosuch", nil, nil, SubmitOptions{}); err == nil {
		t.Error("unknown tool accepted")
	}
	if _, err := g.Submit("seqstats", nil, smallReadSet(t),
		SubmitOptions{Runtime: "docker"}); err == nil {
		t.Error("container runtime accepted for tool without container")
	}
}

// TestBadParamsFailJob: a job whose params or dataset its wrapper refuses
// fails at submit, before it takes a job ID or stages a record.
func TestBadParamsFailJob(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	defer j.Close()
	g := testGalaxy(t, WithJournal(j, "h1"))
	rs, sq := smallReadSet(t), smallSquiggles(t)
	tick := j.Stats().Tick
	for _, bad := range []struct {
		tool    string
		params  map[string]string
		dataset any
		want    string
	}{
		{"racon", map[string]string{"threads": "lots"}, rs, `threads="lots" is not an integer`},
		{"bonito", map[string]string{"scale": "abc"}, sq, `scale="abc" is not a float in (0, 1]`},
		{"bonito", map[string]string{"scael": "0.001", "model": "nonexistent"}, sq, `model="nonexistent" is not one of ["dna_r9.4.1"]`},
		{"seqstats", nil, sq, `dataset format "fast5"`},
		{"bonito", map[string]string{"threads": "0"}, sq, "violates its min"},
		{"bonito", map[string]string{"decoder": "viterbi"}, sq, "is not one of"},
		{"racon", map[string]string{"scale": "1.5"}, rs, "not a float in (0, 1]"},
		{"racon", map[string]string{"reads": "reads.fa"}, rs, "is a data input"},
		{"racon", map[string]string{"__galaxy_gpu_enabled__": "true"}, rs, "unknown param"},
		{"racon", map[string]string{KeyParam: "-1"}, rs, "not an unsigned integer"},
	} {
		job, err := g.Submit(bad.tool, bad.params, bad.dataset, SubmitOptions{})
		if err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s %v: Submit = %v, %v; want an error naming %q", bad.tool, bad.params, job, err, bad.want)
		}
	}
	if now := j.Stats().Tick; now != tick {
		t.Errorf("refused submits staged %d journal records", now-tick)
	}
	job, err := g.Submit("bonito", map[string]string{"decoder": "beam", "threads": "2", "scale": "0.001"}, sq, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != 1 {
		t.Errorf("first accepted job got ID %d: the refusals moved the allocator", job.ID)
	}
	g.Run()
	if job.State != StateOK {
		t.Fatalf("valid bonito job finished %s: %s", job.State, job.Info)
	}
}

func TestWrongDatasetTypeFailsJob(t *testing.T) {
	g := testGalaxy(t)
	job, err := g.Submit("racon", fastParams(), smallSquiggles(t), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if job.State != StateError {
		t.Fatalf("type-mismatched job finished %s", job.State)
	}
}

// --- Multi-GPU case experiments (Section VI-C) ---------------------------

// Case 1: two different tools pinned to distinct GPUs run on exactly those
// GPUs, in parallel, without degradation.
func TestCase1TwoToolsOnTheirOwnGPUs(t *testing.T) {
	g := testGalaxy(t)
	raconJob, err := g.Submit("racon", fastParams(), smallReadSet(t),
		SubmitOptions{GPURequest: "0"})
	if err != nil {
		t.Fatal(err)
	}
	bonitoJob, err := g.Submit("bonito", fastParams(), smallSquiggles(t),
		SubmitOptions{GPURequest: "1", Delay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// Drive until both have started, then inspect placement mid-run.
	g.Engine.RunUntil(2 * time.Millisecond)
	d0, _ := g.Cluster.Device(0)
	d1, _ := g.Cluster.Device(1)
	procs0, procs1 := d0.Processes(), d1.Processes()
	if len(procs0) != 1 || procs0[0].Name != "/usr/bin/racon_gpu" {
		t.Fatalf("GPU0 processes = %+v, want racon_gpu", procs0)
	}
	if len(procs1) != 1 || procs1[0].Name != "/usr/bin/bonito" {
		t.Fatalf("GPU1 processes = %+v, want bonito", procs1)
	}

	g.Run()
	if raconJob.VisibleDevices != "0" || bonitoJob.VisibleDevices != "1" {
		t.Fatalf("CUDA_VISIBLE_DEVICES: racon=%s bonito=%s",
			raconJob.VisibleDevices, bonitoJob.VisibleDevices)
	}
	// "without performance degradation, running in their original
	// execution times": each job's wall time matches a solo run.
	soloG := testGalaxy(t)
	solo, err := soloG.Submit("racon", fastParams(), smallReadSet(t),
		SubmitOptions{GPURequest: "0"})
	if err != nil {
		t.Fatal(err)
	}
	soloG.Run()
	if raconJob.Result.Total != solo.Result.Total {
		t.Errorf("co-scheduled racon took %v, solo run %v",
			raconJob.Result.Total, solo.Result.Total)
	}
}

// Case 2: a second instance requesting the same (busy) GPU is diverted to
// the free one.
func TestCase2SecondInstanceDiverted(t *testing.T) {
	g := testGalaxy(t)
	first, err := g.Submit("bonito", fastParams(), smallSquiggles(t),
		SubmitOptions{GPURequest: "1"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := g.Submit("bonito", fastParams(), smallSquiggles(t),
		SubmitOptions{GPURequest: "1", Delay: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if first.VisibleDevices != "1" {
		t.Fatalf("first bonito on %s, want 1", first.VisibleDevices)
	}
	if second.VisibleDevices != "0" {
		t.Fatalf("second bonito diverted to %s, want 0 (Case 2)", second.VisibleDevices)
	}
}

// Case 3: four instances with both GPUs busy scatter across all devices
// under the PID policy.
func TestCase3FourInstancesScatterByPID(t *testing.T) {
	g := testGalaxy(t, WithPolicy(core.PolicyPID))
	rs := smallReadSet(t)
	jobs := make([]*Job, 4)
	// Arrivals are packed close enough that every earlier instance is
	// still resident when the next one is mapped.
	delays := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	for i := range jobs {
		var err error
		jobs[i], err = g.Submit("racon", fastParams(), rs,
			SubmitOptions{GPURequest: "0", Delay: delays[i], Runtime: "docker"})
		if err != nil {
			t.Fatal(err)
		}
	}
	g.Run()
	// First goes to its requested GPU 0; second diverts to 1; third and
	// fourth find all GPUs busy and scatter to both.
	if jobs[0].VisibleDevices != "0" {
		t.Errorf("job1 on %s, want 0", jobs[0].VisibleDevices)
	}
	if jobs[1].VisibleDevices != "1" {
		t.Errorf("job2 on %s, want 1", jobs[1].VisibleDevices)
	}
	for i := 2; i < 4; i++ {
		if jobs[i].VisibleDevices != "0,1" {
			t.Errorf("job%d on %s, want scattered 0,1 (Case 3)", i+1, jobs[i].VisibleDevices)
		}
	}
}

// Case 4: under the memory policy, the third job goes to the single GPU
// with minimum memory usage instead of scattering.
func TestCase4ThirdJobToMinMemoryGPU(t *testing.T) {
	g := testGalaxy(t, WithPolicy(core.PolicyMemory))
	// Racon runs at a larger scale so it is still resident on GPU 0 (with
	// its small footprint) when the second bonito is mapped, matching the
	// paper's Fig. 9 Case 4 snapshot.
	raconJob, err := g.Submit("racon", map[string]string{"scale": "0.01"}, smallReadSet(t),
		SubmitOptions{GPURequest: "0"})
	if err != nil {
		t.Fatal(err)
	}
	bonito1, err := g.Submit("bonito", fastParams(), smallSquiggles(t),
		SubmitOptions{GPURequest: "1", Delay: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	bonito2, err := g.Submit("bonito", fastParams(), smallSquiggles(t),
		SubmitOptions{GPURequest: "1", Delay: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	g.Run()
	if raconJob.VisibleDevices != "0" || bonito1.VisibleDevices != "1" {
		t.Fatalf("setup placement wrong: racon=%s bonito1=%s",
			raconJob.VisibleDevices, bonito1.VisibleDevices)
	}
	// At submission of bonito2, GPU0 holds racon (smaller footprint)
	// and GPU1 holds bonito's 3 GiB workspace: minimum memory is GPU0.
	if raconJob.Finished <= bonito2.Started {
		t.Fatalf("racon finished at %v before bonito2 mapped at %v; scenario lost",
			raconJob.Finished, bonito2.Started)
	}
	if bonito2.VisibleDevices != "0" {
		t.Fatalf("second bonito on %s, want 0 — the min-memory GPU (Case 4)",
			bonito2.VisibleDevices)
	}
	if !strings.Contains(bonito2.Info, "minimum memory") {
		t.Errorf("decision reason = %q", bonito2.Info)
	}
}

func TestDeviceOOMFailsJobAndSparesOthers(t *testing.T) {
	// Failure injection: bonito pins a ~3 GiB workspace per assigned
	// device. With GPU 1 held busy by a long racon, four bonito
	// instances requesting GPU 0 pile up under the PID policy (busy
	// requests scatter once no GPU is free), and the fourth 3 GiB
	// workspace exceeds the GK210's 11.4 GiB framebuffer. The
	// overflowing job must fail with an out-of-memory error while
	// earlier residents keep running.
	g := testGalaxy(t, WithPolicy(core.PolicyPID))
	sq := smallSquiggles(t)
	// A long-running racon keeps GPU 1 occupied throughout.
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

	failed, succeeded := 0, 0
	for _, j := range jobs {
		switch j.State {
		case StateError:
			failed++
			if !strings.Contains(j.Info, "out of memory") {
				t.Errorf("failed job info = %q, want an OOM error", j.Info)
			}
		case StateOK:
			succeeded++
		default:
			t.Errorf("job %d ended in state %s", j.ID, j.State)
		}
	}
	if failed == 0 {
		t.Fatal("no job hit device OOM under 4x 3GiB on one GK210")
	}
	if succeeded == 0 {
		t.Fatal("OOM took down all jobs; earlier residents must survive")
	}
	// The cluster recovers: all device memory is released at the end.
	for _, d := range g.Cluster.Devices() {
		if got := d.UsedMemoryBytes() / (1 << 20); got != 63 {
			t.Errorf("device %d left with %d MiB after all jobs ended", d.Minor(), got)
		}
	}
}

func TestBuildParamDict(t *testing.T) {
	g := testGalaxy(t)
	binding, err := g.Tool("racon")
	if err != nil {
		t.Fatal(err)
	}
	dict, err := BuildParamDict(binding.XML, map[string]string{"threads": "8"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if dict["threads"] != "8" {
		t.Errorf("user override lost: threads = %s", dict["threads"])
	}
	if dict["batches"] != "1" {
		t.Errorf("wrapper default lost: batches = %s", dict["batches"])
	}
	if dict["__galaxy_gpu_enabled__"] != "true" {
		t.Errorf("__galaxy_gpu_enabled__ = %s", dict["__galaxy_gpu_enabled__"])
	}
	dict, err = BuildParamDict(binding.XML, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if dict["__galaxy_gpu_enabled__"] != "false" {
		t.Errorf("__galaxy_gpu_enabled__ = %s", dict["__galaxy_gpu_enabled__"])
	}
	if _, err := BuildParamDict(nil, nil, false); err == nil {
		t.Error("nil tool accepted")
	}
}

func TestRegisterToolValidation(t *testing.T) {
	g := New(gpu.NewPaperTestbed(nil))
	if err := g.RegisterTool(nil); err == nil {
		t.Error("nil binding accepted")
	}
	if err := g.RegisterDefaultTools(); err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterDefaultTools(); err == nil {
		t.Error("duplicate registration accepted")
	}
}
