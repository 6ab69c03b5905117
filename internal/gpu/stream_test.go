package gpu

import (
	"testing"
	"time"
)

// recordingProfiler is a test double for the Profiler interface.
type recordingProfiler struct {
	apis    []string
	kernels []string
}

func (r *recordingProfiler) RecordAPI(name string, start, dur time.Duration) {
	r.apis = append(r.apis, name)
}
func (r *recordingProfiler) RecordKernel(name string, device int, start, dur time.Duration) {
	r.kernels = append(r.kernels, name)
}

func oneSecondKernel(spec DeviceSpec) Kernel {
	return Kernel{
		Name:            "generatePOAKernel",
		Ops:             spec.PeakOpsPerSecond() * spec.ComputeEfficiency,
		Blocks:          spec.SMs,
		ThreadsPerBlock: 256,
	}
}

func TestLaunchIsAsynchronous(t *testing.T) {
	c := NewPaperTestbed(nil)
	d, _ := c.Device(0)
	s := d.NewStream(c.NextPID(), "tool", 0, nil)
	if err := s.Launch(oneSecondKernel(d.Spec())); err != nil {
		t.Fatal(err)
	}
	// Host timeline should only have paid the launch overhead, not the
	// kernel body.
	if s.Now() > time.Millisecond {
		t.Fatalf("Launch advanced host timeline by %v; kernel should be async", s.Now())
	}
	s.Synchronize()
	if s.Now() < 900*time.Millisecond {
		t.Fatalf("after Synchronize, timeline at %v; kernel body not charged", s.Now())
	}
}

func TestSynchronizeIdempotent(t *testing.T) {
	c := NewPaperTestbed(nil)
	d, _ := c.Device(0)
	s := d.NewStream(c.NextPID(), "tool", 0, nil)
	if err := s.Launch(oneSecondKernel(d.Spec())); err != nil {
		t.Fatal(err)
	}
	s.Synchronize()
	before := s.Now()
	s.Synchronize()
	if s.Now() != before {
		t.Fatalf("second Synchronize moved timeline %v -> %v", before, s.Now())
	}
}

func TestKernelsFromSameProcessSerialize(t *testing.T) {
	c := NewPaperTestbed(nil)
	d, _ := c.Device(0)
	s := d.NewStream(c.NextPID(), "tool", 0, nil)
	k := oneSecondKernel(d.Spec())
	for i := 0; i < 3; i++ {
		if err := s.Launch(k); err != nil {
			t.Fatal(err)
		}
	}
	s.Synchronize()
	if got := s.Now(); got < 2900*time.Millisecond {
		t.Fatalf("three serialized 1s kernels completed at %v", got)
	}
}

func TestStreamsOnDifferentDevicesOverlap(t *testing.T) {
	// Case 1 of the paper: two tools on separate GPUs run "in their
	// original execution times" — no mutual slowdown.
	c := NewPaperTestbed(nil)
	d0, _ := c.Device(0)
	d1, _ := c.Device(1)
	s0 := d0.NewStream(c.NextPID(), "racon", 0, nil)
	s1 := d1.NewStream(c.NextPID(), "bonito", 0, nil)
	k := oneSecondKernel(d0.Spec())
	if err := s0.Launch(k); err != nil {
		t.Fatal(err)
	}
	if err := s1.Launch(k); err != nil {
		t.Fatal(err)
	}
	s0.Synchronize()
	s1.Synchronize()
	for i, s := range []*Stream{s0, s1} {
		if got := s.Now(); got > 1100*time.Millisecond {
			t.Errorf("stream %d on dedicated device finished at %v, want ~1s", i, got)
		}
	}
}

func TestCoLocatedProcessesContend(t *testing.T) {
	// Case 4 rationale: stacking jobs on one GPU causes slowdown, which is
	// why the memory-aware policy spreads them.
	c := NewPaperTestbed(nil)
	d, _ := c.Device(0)
	s0 := d.NewStream(c.NextPID(), "racon", 0, nil)
	s1 := d.NewStream(c.NextPID(), "bonito", 0, nil)
	k := oneSecondKernel(d.Spec())
	if err := s0.Launch(k); err != nil {
		t.Fatal(err)
	}
	if err := s1.Launch(k); err != nil {
		t.Fatal(err)
	}
	s1.Synchronize()
	if got := s1.Now(); got < 1900*time.Millisecond {
		t.Fatalf("co-located kernel showed no contention: finished at %v", got)
	}
}

func TestMallocChargesTimeAndAccounts(t *testing.T) {
	c := NewPaperTestbed(nil)
	d, _ := c.Device(0)
	s := d.NewStream(c.NextPID(), "tool", 0, nil)
	if err := s.Malloc(1 << 30); err != nil {
		t.Fatal(err)
	}
	if s.Now() == 0 {
		t.Error("Malloc charged no time")
	}
	if got := d.Processes()[0].MemoryMiB(); got != 1024 {
		t.Errorf("after Malloc(1GiB), process holds %d MiB", got)
	}
}

func TestCopyTimesScaleWithSize(t *testing.T) {
	c := NewPaperTestbed(nil)
	d, _ := c.Device(0)
	s := d.NewStream(c.NextPID(), "tool", 0, nil)
	start := s.Now()
	s.CopyH2D(1 << 30)
	small := s.Now() - start
	start = s.Now()
	s.CopyH2D(4 << 30)
	large := s.Now() - start
	if large <= small {
		t.Fatalf("4GiB copy (%v) not slower than 1GiB copy (%v)", large, small)
	}
	// 1 GiB at 12 GB/s is ~89ms.
	if small < 50*time.Millisecond || small > 200*time.Millisecond {
		t.Errorf("1GiB H2D copy modeled as %v, want ~89ms", small)
	}
}

func TestCopyWaitsForQueuedKernels(t *testing.T) {
	c := NewPaperTestbed(nil)
	d, _ := c.Device(0)
	s := d.NewStream(c.NextPID(), "tool", 0, nil)
	if err := s.Launch(oneSecondKernel(d.Spec())); err != nil {
		t.Fatal(err)
	}
	s.CopyD2H(1 << 20) // must first drain the in-flight kernel
	if got := s.Now(); got < 900*time.Millisecond {
		t.Fatalf("D2H copy did not wait for kernel: timeline at %v", got)
	}
}

func TestProfilerSeesAPIsAndKernels(t *testing.T) {
	c := NewPaperTestbed(nil)
	d, _ := c.Device(0)
	prof := &recordingProfiler{}
	s := d.NewStream(c.NextPID(), "tool", 0, prof)
	if err := s.Malloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	s.CopyH2D(1 << 20)
	if err := s.Launch(oneSecondKernel(d.Spec())); err != nil {
		t.Fatal(err)
	}
	s.Synchronize()
	s.CopyD2H(1 << 20)

	want := map[string]bool{}
	for _, a := range prof.apis {
		want[a] = true
	}
	for _, api := range []string{"cudaMalloc", "cudaMemcpyHtoD", "cudaLaunchKernel", "cudaStreamSynchronize", "cudaMemcpyDtoH"} {
		if !want[api] {
			t.Errorf("profiler missing API %q; saw %v", api, prof.apis)
		}
	}
	if len(prof.kernels) != 1 || prof.kernels[0] != "generatePOAKernel" {
		t.Errorf("profiler kernels = %v", prof.kernels)
	}
}

func TestCloseDetaches(t *testing.T) {
	c := NewPaperTestbed(nil)
	d, _ := c.Device(0)
	s := d.NewStream(c.NextPID(), "tool", 0, nil)
	if err := s.Malloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got := d.ProcessCount(); got != 0 {
		t.Fatalf("after Close, device still has %d processes", got)
	}
	if got := d.UsedMemoryBytes() / (1 << 20); got != 63 {
		t.Fatalf("after Close, used = %d MiB, want 63", got)
	}
}

func TestLaunchValidatesKernel(t *testing.T) {
	c := NewPaperTestbed(nil)
	d, _ := c.Device(0)
	s := d.NewStream(c.NextPID(), "tool", 0, nil)
	if err := s.Launch(Kernel{Name: "bad", Blocks: 0, ThreadsPerBlock: 1}); err == nil {
		t.Fatal("invalid kernel launched successfully")
	}
}

func TestMultipleStreamsSameProcessSerialize(t *testing.T) {
	// Two streams of one process share the device-side queue (our model
	// serializes per PID), and nvidia-smi shows a single process entry.
	c := NewPaperTestbed(nil)
	d, _ := c.Device(0)
	pid := c.NextPID()
	s1 := d.NewStream(pid, "tool", 0, nil)
	s2 := d.NewStream(pid, "tool", 0, nil)
	if d.ProcessCount() != 1 {
		t.Fatalf("two streams of one pid created %d process entries", d.ProcessCount())
	}
	k := oneSecondKernel(d.Spec())
	if err := s1.Launch(k); err != nil {
		t.Fatal(err)
	}
	if err := s2.Launch(k); err != nil {
		t.Fatal(err)
	}
	s2.Synchronize()
	if got := s2.Now(); got < 1900*time.Millisecond {
		t.Fatalf("same-pid kernels overlapped: stream 2 done at %v", got)
	}
	// Memory allocated via either stream accrues to the one process.
	if err := s1.Malloc(10 << 20); err != nil {
		t.Fatal(err)
	}
	if err := s2.Malloc(10 << 20); err != nil {
		t.Fatal(err)
	}
	if got := d.Processes()[0].MemoryMiB(); got != 20 {
		t.Fatalf("process memory = %d MiB, want 20", got)
	}
}
