package racon

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"gyan/internal/gpu"
	"gyan/internal/nvprof"
	"gyan/internal/workload"
)

// testReadSet builds a small synthetic read set that still carries the
// 17 GiB nominal size of the paper's Alzheimers NFL dataset, so the cost
// model runs at paper scale while real compute stays small.
func testReadSet(t testing.TB) *workload.ReadSet {
	t.Helper()
	rs, err := workload.GenerateLongReads(workload.LongReadConfig{
		Name:              "test_nfl",
		Seed:              1234,
		RefLen:            3000,
		ReadLen:           400,
		Coverage:          10,
		SubRate:           0.02,
		InsRate:           0.03,
		DelRate:           0.03,
		BackboneErrorRate: 0.04,
		NominalBytes:      17 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func gpuEnv(t testing.TB, c *gpu.Cluster, devices ...int) Env {
	t.Helper()
	return Env{
		Cluster:  c,
		Devices:  devices,
		PID:      c.NextPID(),
		ProcName: "/usr/bin/racon_gpu",
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Threads = 0 },
		func(p *Params) { p.Batches = 0 },
		func(p *Params) { p.WindowLen = 10 },
		func(p *Params) { p.Scale = 0 },
		func(p *Params) { p.Scale = 1.5 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestCPURunPolishesDraft(t *testing.T) {
	rs := testReadSet(t)
	res, err := Run(rs, DefaultParams(), Env{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GPUUsed {
		t.Error("CPU-only env reported GPU use")
	}
	if res.PolishedIdentity <= res.DraftIdentity {
		t.Fatalf("polishing did not improve identity: %.4f -> %.4f",
			res.DraftIdentity, res.PolishedIdentity)
	}
	if res.PolishedIdentity < 0.97 {
		t.Errorf("polished identity %.4f below 0.97", res.PolishedIdentity)
	}
	if res.Windows == 0 || res.MappedReads == 0 || res.DPCells == 0 {
		t.Errorf("missing run stats: %+v", res)
	}
}

// TestPolishQualityAtPaperCoverage guards against window-boundary
// regressions: at 30x coverage with long (indel-bearing) reads, polishing
// must lift the draft well above 0.99 identity. This is the configuration
// where linear segment clipping once destroyed the gains.
func TestPolishQualityAtPaperCoverage(t *testing.T) {
	rs, err := workload.GenerateLongReads(workload.LongReadConfig{
		Name:              "paper_cov",
		Seed:              42,
		RefLen:            8000,
		ReadLen:           1000,
		Coverage:          30,
		SubRate:           0.02,
		InsRate:           0.05,
		DelRate:           0.04,
		BackboneErrorRate: 0.05,
		NominalBytes:      17 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(rs, DefaultParams(), Env{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PolishedIdentity < 0.99 {
		t.Fatalf("polished identity %.4f at paper coverage, want >= 0.99 (draft %.4f)",
			res.PolishedIdentity, res.DraftIdentity)
	}
}

func TestGPUAndCPUConsensusIdentical(t *testing.T) {
	rs := testReadSet(t)
	c := gpu.NewPaperTestbed(nil)
	p := DefaultParams()
	cpuRes, err := Run(rs, p, Env{})
	if err != nil {
		t.Fatal(err)
	}
	gpuRes, err := Run(rs, p, gpuEnv(t, c, 0))
	if err != nil {
		t.Fatal(err)
	}
	if cpuRes.Consensus.String() != gpuRes.Consensus.String() {
		t.Fatal("GPU and CPU backends produced different consensus")
	}
	if !gpuRes.GPUUsed {
		t.Error("GPU run not flagged")
	}
}

func TestThreadCountDoesNotChangeConsensus(t *testing.T) {
	rs := testReadSet(t)
	p1, p8 := DefaultParams(), DefaultParams()
	p1.Threads, p8.Threads = 1, 8
	r1, err := Run(rs, p1, Env{})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(rs, p8, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Consensus.String() != r8.Consensus.String() {
		t.Fatal("worker-pool parallelism changed the consensus")
	}
}

// Calibration: full-scale CPU run reproduces the paper's ~410 s end-to-end
// and ~117 s polishing stage at 4 threads.
func TestCPUFullScaleMatchesPaper(t *testing.T) {
	rs := testReadSet(t)
	res, err := Run(rs, DefaultParams(), Env{})
	if err != nil {
		t.Fatal(err)
	}
	e2e := res.Timing.Total().Seconds()
	if e2e < 390 || e2e > 430 {
		t.Errorf("CPU end-to-end = %.1f s, paper reports ~410 s", e2e)
	}
	polish := res.Timing.CPUPolish.Seconds()
	if polish < 110 || polish > 125 {
		t.Errorf("CPU polishing = %.1f s, paper reports 117 s", polish)
	}
}

// Calibration: full-scale GPU run reproduces ~200 s end-to-end, ~2 s
// allocation, ~13-15 s kernels.
func TestGPUFullScaleMatchesPaper(t *testing.T) {
	rs := testReadSet(t)
	c := gpu.NewPaperTestbed(nil)
	res, err := Run(rs, DefaultParams(), gpuEnv(t, c, 0))
	if err != nil {
		t.Fatal(err)
	}
	e2e := res.Timing.Total().Seconds()
	if e2e < 185 || e2e > 215 {
		t.Errorf("GPU end-to-end = %.1f s, paper reports ~200 s", e2e)
	}
	if alloc := res.Timing.Alloc.Seconds(); alloc < 1.5 || alloc > 2.5 {
		t.Errorf("allocation = %.2f s, paper reports ~2 s", alloc)
	}
	if k := res.Timing.Kernels.Seconds(); k < 11 || k > 17 {
		t.Errorf("polish kernels = %.1f s, paper reports ~13 s", k)
	}
	if sync := res.Timing.Sync.Seconds(); sync < 20 || sync > 45 {
		t.Errorf("API overhead = %.1f s, paper reports ~40 s", sync)
	}
	cpuRes, err := Run(rs, DefaultParams(), Env{})
	if err != nil {
		t.Fatal(err)
	}
	speedup := cpuRes.Timing.Total().Seconds() / e2e
	if speedup < 1.8 || speedup > 2.4 {
		t.Errorf("end-to-end speedup = %.2fx, paper reports ~2x", speedup)
	}
}

// Calibration: at Fig. 3 scale (1/36), the polishing stage lands near the
// paper's 3.22 s CPU vs 1.72 s GPU, and the best banded configuration uses
// more batches than the best unbanded one.
func TestFig3ScalePolishTimes(t *testing.T) {
	rs := testReadSet(t)
	c := gpu.NewPaperTestbed(nil)
	p := DefaultParams()
	p.Scale = 1.0 / 36

	cpuRes, err := Run(rs, p, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if got := cpuRes.Timing.Polish().Seconds(); got < 2.9 || got > 3.7 {
		t.Errorf("fig3 CPU polish = %.2f s, paper reports 3.22 s", got)
	}

	gpuRes, err := Run(rs, p, gpuEnv(t, c, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := gpuRes.Timing.Polish().Seconds(); got < 1.4 || got > 2.0 {
		t.Errorf("fig3 GPU polish = %.2f s, paper reports 1.72 s", got)
	}

	ratio := cpuRes.Timing.Polish().Seconds() / gpuRes.Timing.Polish().Seconds()
	if ratio < 1.6 || ratio > 2.6 {
		t.Errorf("fig3 CPU/GPU ratio = %.2f, paper reports ~2x", ratio)
	}
}

func TestBandingPrefersMoreBatches(t *testing.T) {
	rs := testReadSet(t)
	p := DefaultParams()
	p.Scale = 1.0 / 36
	p.Banding = true

	polish := func(batches int) float64 {
		c := gpu.NewPaperTestbed(nil)
		p.Batches = batches
		res, err := Run(rs, p, gpuEnv(t, c, 0))
		if err != nil {
			t.Fatal(err)
		}
		return res.Timing.Polish().Seconds()
	}
	t1, t16 := polish(1), polish(16)
	if t16 >= t1 {
		t.Errorf("banded polish with 16 batches (%.2f s) not faster than 1 batch (%.2f s); paper's best banded config is 16 batches", t16, t1)
	}
}

func TestUnbandedPrefersFewBatches(t *testing.T) {
	rs := testReadSet(t)
	p := DefaultParams()
	p.Scale = 1.0 / 36
	polish := func(batches int) float64 {
		c := gpu.NewPaperTestbed(nil)
		p.Batches = batches
		res, err := Run(rs, p, gpuEnv(t, c, 0))
		if err != nil {
			t.Fatal(err)
		}
		return res.Timing.Polish().Seconds()
	}
	if t1, t16 := polish(1), polish(16); t1 > t16 {
		t.Errorf("unbanded polish best at 16 batches (%.2f vs %.2f); paper's best unbanded config is 1 batch", t16, t1)
	}
}

func TestContainerizedOverheadMatchesFig7(t *testing.T) {
	rs := testReadSet(t)
	p := DefaultParams()
	p.Scale = 1.0 / 36
	p.Banding = true
	p.Batches = 8
	p.Threads = 2

	bare := p
	docker := p
	docker.Containerized = true

	c1 := gpu.NewPaperTestbed(nil)
	bareRes, err := Run(rs, bare, gpuEnv(t, c1, 0))
	if err != nil {
		t.Fatal(err)
	}
	c2 := gpu.NewPaperTestbed(nil)
	dockerRes, err := Run(rs, docker, gpuEnv(t, c2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dockerRes.Timing.ContainerLaunch != 600*time.Millisecond {
		t.Errorf("container launch = %v, paper reports ~0.6 s", dockerRes.Timing.ContainerLaunch)
	}
	overhead := (dockerRes.Timing.Polish() + dockerRes.Timing.ContainerLaunch -
		bareRes.Timing.Polish()).Seconds()
	if overhead < 0.5 || overhead > 1.0 {
		t.Errorf("container overhead = %.2f s, paper reports ~0.6 s", overhead)
	}
}

func TestContainerThreadQuotaShiftsBestThreads(t *testing.T) {
	rs := testReadSet(t)
	base := DefaultParams()
	base.Scale = 1.0 / 36
	base.Containerized = true
	run := func(threads int) float64 {
		c := gpu.NewPaperTestbed(nil)
		p := base
		p.Threads = threads
		res, err := Run(rs, p, gpuEnv(t, c, 0))
		if err != nil {
			t.Fatal(err)
		}
		return res.Timing.Total().Seconds()
	}
	t2, t4 := run(2), run(4)
	if t4 <= t2 {
		t.Errorf("containerized 4 threads (%.2f s) not slower than 2 threads (%.2f s); paper's Fig. 7 best is 2 threads", t4, t2)
	}
}

func TestMultiGPUSpreadsWork(t *testing.T) {
	rs := testReadSet(t)
	p := DefaultParams()
	one := gpu.NewPaperTestbed(nil)
	resOne, err := Run(rs, p, gpuEnv(t, one, 0))
	if err != nil {
		t.Fatal(err)
	}
	two := gpu.NewPaperTestbed(nil)
	resTwo, err := Run(rs, p, gpuEnv(t, two, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if resTwo.Timing.Kernels >= resOne.Timing.Kernels {
		t.Errorf("2-GPU kernels %.1f s not faster than 1-GPU %.1f s",
			resTwo.Timing.Kernels.Seconds(), resOne.Timing.Kernels.Seconds())
	}
	if resTwo.Consensus.String() != resOne.Consensus.String() {
		t.Error("multi-GPU run changed the consensus")
	}
}

func TestKeepOpenLeavesProcessesAttached(t *testing.T) {
	rs := testReadSet(t)
	c := gpu.NewPaperTestbed(nil)
	env := gpuEnv(t, c, 0)
	env.KeepOpen = true
	res, err := Run(rs, DefaultParams(), env)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := c.Device(0)
	if d.ProcessCount() != 1 {
		t.Fatalf("KeepOpen run left %d processes attached, want 1", d.ProcessCount())
	}
	if len(res.Sessions) != 1 {
		t.Fatalf("Sessions has %d entries", len(res.Sessions))
	}
	res.Sessions[0].Close()
	if d.ProcessCount() != 0 {
		t.Fatal("closing session did not detach process")
	}
}

func TestRunReleasesDevicesByDefault(t *testing.T) {
	rs := testReadSet(t)
	c := gpu.NewPaperTestbed(nil)
	if _, err := Run(rs, DefaultParams(), gpuEnv(t, c, 0)); err != nil {
		t.Fatal(err)
	}
	d, _ := c.Device(0)
	if d.ProcessCount() != 0 {
		t.Fatalf("completed run left %d processes attached", d.ProcessCount())
	}
	if got := d.UsedMemoryBytes() / (1 << 20); got != 63 {
		t.Fatalf("completed run left %d MiB allocated", got)
	}
}

func TestProfilerSeesClaraGenomicsKernels(t *testing.T) {
	rs := testReadSet(t)
	c := gpu.NewPaperTestbed(nil)
	prof := nvprof.New()
	env := gpuEnv(t, c, 0)
	env.Profiler = prof
	if _, err := Run(rs, DefaultParams(), env); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, h := range prof.KernelHotspots() {
		names[h.Name] = true
	}
	for _, want := range []string{"alignmentKernel", "generatePOAKernel", "generateConsensusKernel"} {
		if !names[want] {
			t.Errorf("profile missing kernel %q", want)
		}
	}
	// Stall analysis must land near the paper's 70/20 split.
	s := prof.Stalls()
	if s.MemoryDependencyPct < 60 || s.MemoryDependencyPct > 80 {
		t.Errorf("memory dependency stalls = %.1f%%, paper reports ~70%%", s.MemoryDependencyPct)
	}
	if s.ExecutionDependencyPct < 12 || s.ExecutionDependencyPct > 28 {
		t.Errorf("execution dependency stalls = %.1f%%, paper reports ~20%%", s.ExecutionDependencyPct)
	}
}

func TestRunRejectsEmptyInputs(t *testing.T) {
	if _, err := Run(nil, DefaultParams(), Env{}); err == nil {
		t.Error("nil read set accepted")
	}
	rs := testReadSet(t)
	rs.Reads = nil
	if _, err := Run(rs, DefaultParams(), Env{}); err == nil {
		t.Error("empty read slice accepted")
	}
}

func TestMapReadsPlacesMostReads(t *testing.T) {
	rs := testReadSet(t)
	mappings, stats, err := MapReads(rs.Backbone, rs.Reads, DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	if len(mappings) < len(rs.Reads)*8/10 {
		t.Fatalf("only %d/%d reads mapped", len(mappings), len(rs.Reads))
	}
	if stats.KmersIndexed == 0 || stats.KmersQueried == 0 {
		t.Error("mapper stats empty")
	}
	// Placements should be near the true origins.
	for _, m := range mappings[:20] {
		truth := rs.Starts[m.ReadIndex]
		diff := m.Start - truth
		if diff < 0 {
			diff = -diff
		}
		if diff > 30 {
			t.Errorf("read %d placed at %d, true start %d", m.ReadIndex, m.Start, truth)
		}
	}
}

func TestMapReadsValidation(t *testing.T) {
	rs := testReadSet(t)
	if _, _, err := MapReads(rs.Backbone, rs.Reads, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := MapReads(rs.Backbone, rs.Reads, 40); err == nil {
		t.Error("k=40 accepted")
	}
	short := rs.Backbone
	short.Bases = short.Bases[:5]
	if _, _, err := MapReads(short, rs.Reads, DefaultK); err == nil {
		t.Error("backbone shorter than k accepted")
	}
}

func TestBuildWindowsCoversBackbone(t *testing.T) {
	rs := testReadSet(t)
	mappings, _, err := MapReads(rs.Backbone, rs.Reads, DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := BuildWindows(rs.Backbone, rs.Reads, mappings, 500)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for i, w := range windows {
		if w.Index != i {
			t.Fatalf("window %d has index %d", i, w.Index)
		}
		covered += w.End - w.Start
		if len(w.Segments) == 0 && w.End-w.Start == 500 {
			t.Errorf("full window %d has no read support at 10x coverage", i)
		}
	}
	if covered != rs.Backbone.Len() {
		t.Fatalf("windows cover %d bases, backbone has %d", covered, rs.Backbone.Len())
	}
}

func TestBuildWindowsValidation(t *testing.T) {
	rs := testReadSet(t)
	if _, err := BuildWindows(rs.Backbone, rs.Reads, nil, 0); err == nil {
		t.Error("zero window length accepted")
	}
}

// TestRunOnDefaultReadSetGolden pins racon on the read set the server
// registers as alzheimers_nfl to exact values: the kernel may get faster, the
// answer may not move. Two runs at once (four workers each, drawing on one
// workspace pool) must agree byte for byte — under -race this is the check
// that no workspace is shared.
func TestRunOnDefaultReadSetGolden(t *testing.T) {
	rs, err := workload.AlzheimersNFL(42)
	if err != nil {
		t.Fatal(err)
	}
	var res [2]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = Run(rs, DefaultParams(), Env{})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(res[0].Consensus.Bases, res[1].Consensus.Bases) {
		t.Fatal("two concurrent runs polished to different consensuses")
	}
	got := fmt.Sprintf("%d windows, %d cells, identity %.17g -> %.17g",
		res[0].Windows, res[0].DPCells, res[0].DraftIdentity, res[0].PolishedIdentity)
	const want = "40 windows, 557191946 cells, identity 0.95099999999999996 -> 0.99745407348242809"
	if got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}

// TestRunAllocatesNoMatrixPerJob pins a whole job on the read set bench's
// batch_drain polishes (one window, a handful of reads): with the pool warm
// it allocates the k-mer index, the graph and the result, not a DP matrix
// (three fresh matrices per read made it 1 125 KB).
func TestRunAllocatesNoMatrixPerJob(t *testing.T) {
	rs, err := workload.GenerateLongReads(workload.LongReadConfig{
		Name: "bench_reads", Seed: 42, RefLen: 240, ReadLen: 80, Coverage: 2,
		SubRate: 0.02, InsRate: 0.03, DelRate: 0.03, BackboneErrorRate: 0.04,
		NominalBytes: 17 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func() { _, err = Run(rs, DefaultParams(), Env{}) }
	run() // warm the pool
	// A collection may empty the pool between the two runs; the best of a
	// few is the warm figure.
	best := uint64(1 << 62)
	for i := 0; i < 5 && err == nil; i++ {
		best = min(best, allocatedBy(run))
	}
	if err != nil || best >= 300<<10 {
		t.Fatalf("a warm Run allocated %d bytes (err %v), want < 300 KB", best, err)
	}
	t.Logf("a warm Run allocates %d bytes", best)
}
