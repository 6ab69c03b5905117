package bonito

import (
	"testing"
	"testing/quick"

	"gyan/internal/bioseq"
	"gyan/internal/gpu"
	"gyan/internal/nvprof"
	"gyan/internal/workload"
)

func smallSet(t testing.TB) *workload.SquiggleSet {
	t.Helper()
	set, err := workload.GenerateSquiggles(workload.SquiggleConfig{
		Name: "test", Seed: 77, Reads: 10, BasesPerRead: 200,
		SamplesPerBase: 6, NoiseSigma: 0.03, NominalBytes: 1536 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestGEMMMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		// Small random matrices via the deterministic RNG.
		r := newRNG(seed)
		m, k, n := 2+r(6), 2+r(6), 2+r(6)
		a, b := NewMatrix(m, k), NewMatrix(k, n)
		for i := range a.Data {
			a.Data[i] = float32(r(100)) / 10
		}
		for i := range b.Data {
			b.Data[i] = float32(r(100)) / 10
		}
		c, flops, err := GEMM(a, b)
		if err != nil {
			return false
		}
		if flops != 2*int64(m)*int64(k)*int64(n) {
			return false
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var want float32
				for x := 0; x < k; x++ {
					want += a.At(i, x) * b.At(x, j)
				}
				diff := c.At(i, j) - want
				if diff < -1e-3 || diff > 1e-3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// newRNG returns a tiny deterministic int generator for the property tests.
func newRNG(seed uint64) func(n int) int {
	state := seed*2654435761 + 1
	return func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
}

func TestGEMMShapeMismatch(t *testing.T) {
	if _, _, err := GEMM(NewMatrix(2, 3), NewMatrix(4, 2)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestConv1DMatchesDirectConvolution(t *testing.T) {
	l, err := NewConv1D(1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Kernel [1, 2, 3], bias 0.5.
	l.Weights.Set(0, 0, 1)
	l.Weights.Set(1, 0, 2)
	l.Weights.Set(2, 0, 3)
	l.Bias[0] = 0.5
	x := NewMatrix(4, 1)
	for i, v := range []float32{1, 2, 3, 4} {
		x.Data[i] = v
	}
	out, _, err := l.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	// Direct: y[i] = 1*x[i-1] + 2*x[i] + 3*x[i+1] + 0.5 with zero pad.
	want := []float32{1*0 + 2*1 + 3*2 + 0.5, 1*1 + 2*2 + 3*3 + 0.5, 1*2 + 2*3 + 3*4 + 0.5, 1*3 + 2*4 + 3*0 + 0.5}
	for i, w := range want {
		if got := out.At(i, 0); got != w {
			t.Errorf("y[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestConv1DValidation(t *testing.T) {
	if _, err := NewConv1D(1, 1, 2); err == nil {
		t.Error("even conv width accepted")
	}
	if _, err := NewConv1D(0, 1, 3); err == nil {
		t.Error("zero input channels accepted")
	}
	l, _ := NewConv1D(2, 1, 3)
	if _, _, err := l.Forward(NewMatrix(5, 1)); err == nil {
		t.Error("channel mismatch accepted")
	}
}

func TestBasecallRecoversTruth(t *testing.T) {
	set := smallSet(t)
	net, err := NewPretrained()
	if err != nil {
		t.Fatal(err)
	}
	for _, sq := range set.Squiggles {
		call, flops, err := net.Basecall(sq)
		if err != nil {
			t.Fatal(err)
		}
		if flops <= 0 {
			t.Fatal("no FLOPs reported")
		}
		id := bioseq.Identity(call.Bases, sq.Truth.Bases)
		if id < 0.99 {
			t.Fatalf("%s: call identity %.4f, want >= 0.99", sq.ID, id)
		}
	}
}

// Decode is decode with a fresh class buffer.
func Decode(logits Matrix) ([]byte, error) {
	return decode(logits, make([]int, logits.Rows))
}

func decodeClasses(t *testing.T, seq []int) string {
	t.Helper()
	logits := NewMatrix(len(seq), numClasses)
	for t0, k := range seq {
		logits.Set(t0, k, 1)
	}
	out, err := Decode(logits)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestDecodeCollapsesRepeatsAndBlanks(t *testing.T) {
	// Dwell-2 plateaus: AA AA blank AA blank blank CC -> "AAC" after CTC
	// (consecutive repeats collapse; the blank separates the two As).
	seq := []int{classA, classA, classA, classA, classBlank, classA, classA,
		classBlank, classBlank, classC, classC}
	if got := decodeClasses(t, seq); got != "AAC" {
		t.Fatalf("decoded %q, want AAC", got)
	}
}

func TestDecodeRepairsIsolatedBlips(t *testing.T) {
	// A noise blip inside a G plateau (G G T G G) must not become an
	// insertion; the signal model's dwell is always >= 2 samples.
	seq := []int{classG, classG, classT, classG, classG, classBlank, classA, classA}
	if got := decodeClasses(t, seq); got != "GA" {
		t.Fatalf("decoded %q, want GA (blip repaired)", got)
	}
	// A single base sample surrounded by blanks is likewise noise.
	seq = []int{classC, classC, classBlank, classT, classBlank, classC, classC}
	if got := decodeClasses(t, seq); got != "CC" {
		t.Fatalf("decoded %q, want CC (stray single-dwell base dropped)", got)
	}
	// But a blank between identical plateaus is preserved: it is the
	// only evidence of a repeated base.
	seq = []int{classC, classC, classBlank, classC, classC}
	if got := decodeClasses(t, seq); got != "CC" {
		t.Fatalf("decoded %q, want CC (repeat-separating blank kept)", got)
	}
}

func TestDecodeRejectsWrongWidth(t *testing.T) {
	if _, err := Decode(NewMatrix(3, 2)); err == nil {
		t.Fatal("wrong class count accepted")
	}
}

func TestCPUAndGPUProduceIdenticalCalls(t *testing.T) {
	set := smallSet(t)
	cpuRes, err := Run(set, DefaultParams(), Env{})
	if err != nil {
		t.Fatal(err)
	}
	c := gpu.NewPaperTestbed(nil)
	gpuRes, err := Run(set, DefaultParams(), Env{
		Cluster: c, Devices: []int{1}, PID: c.NextPID(), ProcName: "/usr/bin/bonito",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cpuRes.Calls) != len(gpuRes.Calls) {
		t.Fatal("call count differs between backends")
	}
	for i := range cpuRes.Calls {
		if cpuRes.Calls[i].String() != gpuRes.Calls[i].String() {
			t.Fatalf("call %d differs between backends", i)
		}
	}
	if !gpuRes.GPUUsed || cpuRes.GPUUsed {
		t.Error("GPUUsed flags wrong")
	}
}

// Calibration: the paper's Fig. 5 — CPU >210 h on the 1.5 GB set, GPU
// speedup >50x.
func TestFig5Calibration(t *testing.T) {
	set := smallSet(t) // NominalBytes = 1.5 GB
	cpuRes, err := Run(set, DefaultParams(), Env{})
	if err != nil {
		t.Fatal(err)
	}
	cpuHours := cpuRes.Timing.Total().Hours()
	if cpuHours < 210 || cpuHours > 260 {
		t.Errorf("CPU basecalling = %.0f h, paper reports >210 h", cpuHours)
	}

	c := gpu.NewPaperTestbed(nil)
	gpuRes, err := Run(set, DefaultParams(), Env{
		Cluster: c, Devices: []int{1}, PID: c.NextPID(), ProcName: "/usr/bin/bonito",
	})
	if err != nil {
		t.Fatal(err)
	}
	speedup := cpuRes.Timing.Total().Seconds() / gpuRes.Timing.Total().Seconds()
	if speedup < 50 {
		t.Errorf("GPU speedup = %.0fx, paper reports >50x", speedup)
	}
	if speedup > 80 {
		t.Errorf("GPU speedup = %.0fx implausibly high for a K80", speedup)
	}
}

func TestLargeDatasetScalesLinearly(t *testing.T) {
	small := smallSet(t)
	large := smallSet(t)
	large.NominalBytes = 5324 << 20 // Klebsiella scale
	cpuSmall, err := Run(small, DefaultParams(), Env{})
	if err != nil {
		t.Fatal(err)
	}
	cpuLarge, err := Run(large, DefaultParams(), Env{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := cpuLarge.Timing.Total().Seconds() / cpuSmall.Timing.Total().Seconds()
	if ratio < 3.0 || ratio > 4.0 {
		t.Errorf("large/small CPU ratio = %.2f, dataset ratio is 3.47 (paper approximates 4x)", ratio)
	}
}

func TestGPURunChargesDeviceMemory(t *testing.T) {
	set := smallSet(t)
	c := gpu.NewPaperTestbed(nil)
	env := Env{Cluster: c, Devices: []int{0}, PID: c.NextPID(),
		ProcName: "/usr/bin/bonito", KeepOpen: true}
	res, err := Run(set, DefaultParams(), env)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := c.Device(0)
	if got := d.ProcessCount(); got != 1 {
		t.Fatalf("bonito process not resident: count = %d", got)
	}
	wantMiB := int64((modelResidentBytes + contextAllocBytes) >> 20)
	if got := d.Processes()[0].MemoryMiB(); got != wantMiB {
		t.Errorf("resident memory = %d MiB, want %d", got, wantMiB)
	}
	for _, s := range res.Sessions {
		s.Close()
	}
	if d.ProcessCount() != 0 {
		t.Error("sessions not released")
	}
}

func TestProfilerSeesGEMMHotspots(t *testing.T) {
	set := smallSet(t)
	c := gpu.NewPaperTestbed(nil)
	prof := nvprof.New()
	_, err := Run(set, DefaultParams(), Env{
		Cluster: c, Devices: []int{0}, PID: c.NextPID(),
		ProcName: "/usr/bin/bonito", Profiler: prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 6: kernel launcher, kernel synchronizer, GEMM.
	names := map[string]bool{}
	for _, h := range prof.Hotspots() {
		names[h.Name] = true
	}
	for _, want := range []string{"sgemm_kepler_128x64", "cudaStreamSynchronize", "cudaLaunchKernel"} {
		if !names[want] {
			t.Errorf("profile missing %q", want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	set := smallSet(t)
	if _, err := Run(nil, DefaultParams(), Env{}); err == nil {
		t.Error("nil set accepted")
	}
	p := DefaultParams()
	p.Threads = 0
	if _, err := Run(set, p, Env{}); err == nil {
		t.Error("zero threads accepted")
	}
	p = DefaultParams()
	p.Scale = 2
	if _, err := Run(set, p, Env{}); err == nil {
		t.Error("scale > 1 accepted")
	}
}

func TestGPUTimingBucketsCoverStages(t *testing.T) {
	set := smallSet(t)
	c := gpu.NewPaperTestbed(nil)
	res, err := Run(set, DefaultParams(), Env{
		Cluster: c, Devices: []int{0}, PID: c.NextPID(), ProcName: "/usr/bin/bonito",
	})
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timing
	if tm.Load <= 0 || tm.Compute <= 0 || tm.Transfer <= 0 || tm.Sync <= 0 || tm.IO <= 0 {
		t.Fatalf("timing buckets incomplete: %+v", tm)
	}
	if tm.Compute < 10*tm.Sync {
		t.Errorf("compute (%v) should dominate sync (%v) for GEMM workloads", tm.Compute, tm.Sync)
	}

}
