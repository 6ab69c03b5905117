package nvprof

import (
	"strings"
	"testing"
	"time"

	"gyan/internal/gpu"
)

// Compile-time checks that Profile satisfies the gpu interfaces.
var (
	_ gpu.Profiler             = (*Profile)(nil)
	_ gpu.KernelDetailRecorder = (*Profile)(nil)
)

func TestHotspotAggregation(t *testing.T) {
	p := New()
	p.RecordAPI("cudaMemcpyHtoD", 0, 3*time.Second)
	p.RecordAPI("cudaMemcpyHtoD", 3*time.Second, 1*time.Second)
	p.RecordAPI("cudaLaunchKernel", 0, 1*time.Second)
	hs := p.APIHotspots()
	if len(hs) != 2 {
		t.Fatalf("got %d hotspots, want 2", len(hs))
	}
	if hs[0].Name != "cudaMemcpyHtoD" || hs[0].Calls != 2 || hs[0].Total != 4*time.Second {
		t.Fatalf("top hotspot = %+v", hs[0])
	}
	if hs[0].Percent != 80 {
		t.Fatalf("top hotspot percent = %v, want 80", hs[0].Percent)
	}
}

func TestHotspotsMergeAPIsAndKernels(t *testing.T) {
	p := New()
	p.RecordAPI("cudaStreamSynchronize", 0, 6*time.Second)
	p.RecordKernel("generatePOAKernel", 0, 0, 3*time.Second)
	p.RecordKernel("generateConsensusKernel", 0, 3*time.Second, time.Second)
	hs := p.Hotspots()
	if len(hs) != 3 {
		t.Fatalf("combined hotspots = %d rows, want 3", len(hs))
	}
	if hs[0].Name != "cudaStreamSynchronize" || hs[0].Kind != "api" {
		t.Fatalf("top combined hotspot = %+v", hs[0])
	}
	if hs[1].Name != "generatePOAKernel" || hs[1].Kind != "kernel" {
		t.Fatalf("second combined hotspot = %+v", hs[1])
	}
}

func TestHotspotsDeterministicTieBreak(t *testing.T) {
	p := New()
	p.RecordKernel("b", 0, 0, time.Second)
	p.RecordKernel("a", 0, 0, time.Second)
	hs := p.KernelHotspots()
	if hs[0].Name != "a" || hs[1].Name != "b" {
		t.Fatalf("equal-time hotspots not name-ordered: %v, %v", hs[0].Name, hs[1].Name)
	}
}

func TestKernelDetailUpgradesEvent(t *testing.T) {
	p := New()
	p.RecordKernel("k", 1, time.Second, 2*time.Second)
	p.RecordKernelDetail("k", 1, time.Second, 2*time.Second, 0.7)
	ks := p.kernels
	if len(ks) != 1 {
		t.Fatalf("detail record duplicated event: %d kernels", len(ks))
	}
	if ks[0].MemFraction != 0.7 {
		t.Fatalf("MemFraction = %v, want 0.7", ks[0].MemFraction)
	}
}

func TestStallsMatchPaperShapeForRaconLikeMix(t *testing.T) {
	// A POA-style kernel mix: ~73% of limiting cost is memory traffic.
	p := New()
	p.RecordKernelDetail("generatePOAKernel", 0, 0, 10*time.Second, 0.74)
	p.RecordKernelDetail("generateConsensusKernel", 0, 10*time.Second, 3*time.Second, 0.70)
	s := p.Stalls()
	if s.MemoryDependencyPct < 65 || s.MemoryDependencyPct > 75 {
		t.Errorf("memory dependency = %.1f%%, paper reports ~70%%", s.MemoryDependencyPct)
	}
	if s.ExecutionDependencyPct < 15 || s.ExecutionDependencyPct > 25 {
		t.Errorf("execution dependency = %.1f%%, paper reports ~20%%", s.ExecutionDependencyPct)
	}
	sum := s.MemoryDependencyPct + s.ExecutionDependencyPct + s.SynchronizationPct + s.OtherPct
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("stall percentages sum to %.2f, want 100", sum)
	}
}

func TestStallsEmptyProfile(t *testing.T) {
	if s := New().Stalls(); s != (StallReport{}) {
		t.Fatalf("empty profile stalls = %+v, want zero", s)
	}
}

func TestStallsNeutralForUndetailedKernels(t *testing.T) {
	p := New()
	p.RecordKernel("k", 0, 0, time.Second) // no detail -> f = 0.5
	s := p.Stalls()
	if s.MemoryDependencyPct <= 0 || s.ExecutionDependencyPct <= 0 {
		t.Fatalf("undetailed kernel produced degenerate stalls: %+v", s)
	}
}

func TestRenderContainsSections(t *testing.T) {
	p := New()
	p.RecordAPI("cudaStreamSynchronize", 0, 4*time.Second)
	p.RecordKernelDetail("generatePOAKernel", 0, 0, 2*time.Second, 0.74)
	out := p.Render("racon-gpu")
	for _, want := range []string{"GPU activities:", "API calls:", "Stall analysis:",
		"generatePOAKernel", "cudaStreamSynchronize", "memory dependency"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestProfileDrivenByStream(t *testing.T) {
	// End-to-end: events produced by a real gpu.Stream land in the profile
	// with memory fractions attached.
	c := gpu.NewPaperTestbed(nil)
	d, _ := c.Device(0)
	p := New()
	s := d.NewStream(c.NextPID(), "tool", 0, p)
	if err := s.Malloc(64 << 20); err != nil {
		t.Fatal(err)
	}
	s.CopyH2D(64 << 20)
	k := gpu.Kernel{Name: "generatePOAKernel", Ops: 5e9, BytesRead: 20 << 30,
		Blocks: 52, ThreadsPerBlock: 256}
	if err := s.Launch(k); err != nil {
		t.Fatal(err)
	}
	s.Synchronize()
	ks := p.kernels
	if len(ks) != 1 {
		t.Fatalf("profile saw %d kernels", len(ks))
	}
	if ks[0].MemFraction <= 0 || ks[0].MemFraction > 1 {
		t.Fatalf("stream did not deliver kernel detail: MemFraction = %v", ks[0].MemFraction)
	}
	if len(p.apis) == 0 {
		t.Fatal("no API time recorded")
	}
}
