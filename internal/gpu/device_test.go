package gpu

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	return NewPaperTestbed(nil)
}

func TestClusterShapeMatchesPaperTestbed(t *testing.T) {
	c := testCluster(t)
	if got := c.DeviceCount(); got != 2 {
		t.Fatalf("DeviceCount = %d, want 2", got)
	}
	d0, err := c.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	spec := d0.Spec()
	if spec.CoreCount() != 2496 {
		t.Errorf("GK210 core count = %d, want 2496", spec.CoreCount())
	}
	if spec.MemoryMiB() != 11441 {
		t.Errorf("GK210 memory = %d MiB, want 11441", spec.MemoryMiB())
	}
	if spec.WarpSize != 32 {
		t.Errorf("warp size = %d, want 32", spec.WarpSize)
	}
	if c.Host().Cores != 48 {
		t.Errorf("host cores = %d, want 48", c.Host().Cores)
	}
}

func TestDeviceLookupOutOfRange(t *testing.T) {
	c := testCluster(t)
	if _, err := c.Device(2); err == nil {
		t.Error("Device(2) on 2-device cluster did not fail")
	}
	if _, err := c.Device(-1); err == nil {
		t.Error("Device(-1) did not fail")
	}
}

func TestAttachDetachLifecycle(t *testing.T) {
	c := testCluster(t)
	d, _ := c.Device(0)
	pid := c.NextPID()

	d.Attach(pid, "/usr/bin/racon_gpu")
	if got := d.ProcessCount(); got != 1 {
		t.Fatalf("after Attach, ProcessCount = %d", got)
	}
	procs := d.Processes()
	if procs[0].PID != pid || procs[0].Name != "/usr/bin/racon_gpu" || procs[0].Type != "C" {
		t.Fatalf("process entry = %+v", procs[0])
	}

	d.Attach(pid, "/usr/bin/racon_gpu") // idempotent
	if got := d.ProcessCount(); got != 1 {
		t.Fatalf("double Attach created duplicate: count = %d", got)
	}

	d.Detach(pid)
	if got := d.ProcessCount(); got != 0 {
		t.Fatalf("after Detach, ProcessCount = %d", got)
	}
	d.Detach(pid) // no-op
}

func TestIdleDeviceShowsDriverReservation(t *testing.T) {
	c := testCluster(t)
	d, _ := c.Device(0)
	// Fig. 10: idle GPU 0 shows 63MiB / 11441MiB.
	if got := d.UsedMemoryBytes() / (1 << 20); got != 63 {
		t.Fatalf("idle device used memory = %d MiB, want 63", got)
	}
}

func TestAllocFreeAccounting(t *testing.T) {
	c := testCluster(t)
	d, _ := c.Device(0)
	pid := c.NextPID()
	d.Attach(pid, "tool")

	if err := d.Alloc(pid, 100<<20); err != nil {
		t.Fatal(err)
	}
	if got := d.Processes()[0].MemoryMiB(); got != 100 {
		t.Fatalf("process memory = %d MiB, want 100", got)
	}
	if got := d.UsedMemoryBytes() / (1 << 20); got != 163 {
		t.Fatalf("device used = %d MiB, want 163", got)
	}
}

func TestAllocByUnattachedPIDFails(t *testing.T) {
	c := testCluster(t)
	d, _ := c.Device(0)
	if err := d.Alloc(12345, 1<<20); err == nil {
		t.Fatal("Alloc by unattached pid succeeded")
	}
}

func TestAllocOverCapacityReturnsOOM(t *testing.T) {
	c := testCluster(t)
	d, _ := c.Device(0)
	pid := c.NextPID()
	d.Attach(pid, "tool")
	err := d.Alloc(pid, d.Spec().MemoryBytes) // more than free (driver holds 63MiB)
	var oom *ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	if oom.Device != 0 {
		t.Errorf("OOM device = %d, want 0", oom.Device)
	}
	// Failed alloc must not leak accounting.
	if got := d.UsedMemoryBytes() / (1 << 20); got != 63 {
		t.Errorf("after failed alloc, used = %d MiB, want 63", got)
	}
}

func TestDetachReleasesMemory(t *testing.T) {
	c := testCluster(t)
	d, _ := c.Device(0)
	pid := c.NextPID()
	d.Attach(pid, "tool")
	if err := d.Alloc(pid, 500<<20); err != nil {
		t.Fatal(err)
	}
	d.Detach(pid)
	if got := d.UsedMemoryBytes() / (1 << 20); got != 63 {
		t.Fatalf("after Detach, used = %d MiB, want 63", got)
	}
}

// Property: any sequence of valid alloc/exit operations keeps device memory
// accounting within [reserved, capacity] and per-process totals non-negative.
func TestMemoryAccountingInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewPaperTestbed(nil)
		d, _ := c.Device(0)
		pids := []int{c.NextPID(), c.NextPID(), c.NextPID()}
		for _, pid := range pids {
			d.Attach(pid, "tool")
		}
		held := map[int]int64{}
		for _, op := range ops {
			pid := pids[int(op)%len(pids)]
			amount := int64(op) << 18 // up to ~16 GiB requests; many will OOM
			if op%2 == 0 {
				if err := d.Alloc(pid, amount); err == nil {
					held[pid] += amount
				}
			} else if held[pid] > 0 {
				d.Detach(pid) // a process exit is the only release
				d.Attach(pid, "tool")
				held[pid] = 0
			}
			used := d.UsedMemoryBytes()
			if used < driverReservedBytes || used > d.Spec().MemoryBytes {
				return false
			}
		}
		var sum int64
		for _, p := range d.Processes() {
			if p.MemoryBytes < 0 {
				return false
			}
			sum += p.MemoryBytes
		}
		return sum+driverReservedBytes == d.UsedMemoryBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAvailableMinorsTracksProcessPresence(t *testing.T) {
	c := testCluster(t)
	if got := c.AvailableMinors(); len(got) != 2 {
		t.Fatalf("fresh cluster available = %v, want [0 1]", got)
	}
	d1, _ := c.Device(1)
	pid := c.NextPID()
	d1.Attach(pid, "bonito")
	got := c.AvailableMinors()
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("with GPU1 busy, available = %v, want [0]", got)
	}
	d1.Detach(pid)
	if got := c.AvailableMinors(); len(got) != 2 {
		t.Fatalf("after detach, available = %v, want [0 1]", got)
	}
}

func TestNextPIDMatchesPaperFirstPID(t *testing.T) {
	c := testCluster(t)
	if got := c.NextPID(); got != 39953 {
		t.Fatalf("first NextPID = %d, want 39953 (Fig. 11)", got)
	}
	if a, b := c.NextPID(), c.NextPID(); a == b {
		t.Fatal("NextPID returned duplicate PIDs")
	}
}

func TestEnergyAccounting(t *testing.T) {
	c := testCluster(t)
	d, _ := c.Device(0)
	spec := d.Spec()
	// Idle device: exactly idle power over the window.
	idleJ := d.EnergyOver(0, 10*time.Second)
	if want := float64(spec.IdlePowerWatts) * 10; idleJ != want {
		t.Fatalf("idle energy = %.1f J, want %.1f", idleJ, want)
	}
	// A fully-occupying 1s kernel adds the dynamic range for 1s.
	s := d.NewStream(c.NextPID(), "tool", 0, nil)
	k := Kernel{
		Name:            "k",
		Ops:             spec.PeakOpsPerSecond() * spec.ComputeEfficiency,
		Blocks:          4 * spec.SMs,
		ThreadsPerBlock: 256,
	}
	if err := s.Launch(k); err != nil {
		t.Fatal(err)
	}
	s.Synchronize()
	busyJ := d.EnergyOver(0, 10*time.Second)
	extra := busyJ - idleJ
	dynamic := float64(spec.PowerLimitWatts - spec.IdlePowerWatts)
	if extra < dynamic*0.9 || extra > dynamic*1.1 {
		t.Fatalf("1s busy kernel added %.1f J, want ~%.1f", extra, dynamic)
	}
	if d.EnergyOver(5*time.Second, 5*time.Second) != 0 {
		t.Error("empty window has non-zero energy")
	}
}

func TestHostEnergy(t *testing.T) {
	h := XeonHost()
	if got := h.Energy(4, 10*time.Second); got != (h.IdleWatts+4*h.PerCoreWatts)*10 {
		t.Fatalf("host energy = %.1f", got)
	}
	// Core count is clamped to the socket.
	if h.Energy(1000, time.Second) != h.Energy(h.Cores, time.Second) {
		t.Error("busy cores not clamped")
	}
	if h.Energy(-3, time.Second) != h.Energy(0, time.Second) {
		t.Error("negative cores not clamped")
	}
}

func TestUtilizationWindows(t *testing.T) {
	c := testCluster(t)
	d, _ := c.Device(0)
	pid := c.NextPID()
	s := d.NewStream(pid, "tool", 0, nil)
	// One fully occupying kernel lasting ~1s of device time.
	k := Kernel{
		Name:            "k",
		Ops:             d.Spec().PeakOpsPerSecond() * d.Spec().ComputeEfficiency,
		Blocks:          d.Spec().SMs * 4,
		ThreadsPerBlock: 256,
	}
	if err := s.Launch(k); err != nil {
		t.Fatal(err)
	}
	s.Synchronize()
	end := s.Now()
	if end < 900*time.Millisecond || end > 1100*time.Millisecond {
		t.Fatalf("1s-of-work kernel completed at %v", end)
	}
	if u := d.UtilizationOver(0, end); u < 95 {
		t.Errorf("utilization during kernel = %.1f%%, want ~100%%", u)
	}
	if u := d.UtilizationOver(end+time.Second, end+2*time.Second); u != 0 {
		t.Errorf("utilization after kernel = %.1f%%, want 0", u)
	}
}

// fullScanUtilization is UtilizationOver before the reach index: it visits
// the device's whole busy history. Kept as the oracle the indexed scan must
// match bit for bit.
func fullScanUtilization(d *Device, from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var weighted time.Duration
	for _, iv := range d.busy {
		s, e := iv.start, iv.end
		if s < from {
			s = from
		}
		if e > to {
			e = to
		}
		if e > s {
			weighted += time.Duration(float64(e-s) * iv.occupancy)
		}
	}
	util := 100 * float64(weighted) / float64(to-from)
	if util > 100 {
		util = 100
	}
	return util
}

// randomHistory drives seeded kernel traffic through real streams on one
// device: several processes contending for it (so intervals are recorded
// out of start order), back-to-back launches that coalesce, synchronizes and
// host gaps that split them, and aborts that truncate or drop intervals.
func randomHistory(t *testing.T, rng *rand.Rand) *Device {
	t.Helper()
	c := testCluster(t)
	d, _ := c.Device(0)
	var now time.Duration
	var streams []*Stream
	for range 20 + rng.Intn(200) {
		switch op := rng.Intn(10); {
		case op == 0 || len(streams) == 0:
			streams = append(streams, d.NewStream(c.NextPID(), "tool", now, nil))
		case op <= 5:
			s := streams[rng.Intn(len(streams))]
			k := Kernel{
				Name:            "k",
				Ops:             float64(1+rng.Intn(400)) * 1e9,
				Blocks:          1 + rng.Intn(13),
				ThreadsPerBlock: 32 * (1 + rng.Intn(8)),
			}
			if err := s.Launch(k); err != nil {
				t.Fatal(err)
			}
		case op == 6:
			streams[rng.Intn(len(streams))].Synchronize()
		case op == 7:
			streams[rng.Intn(len(streams))].HostOverhead("gap", time.Duration(rng.Intn(300))*time.Millisecond)
		case op == 8:
			i := rng.Intn(len(streams))
			streams[i].Abort(now)
			streams = append(streams[:i], streams[i+1:]...)
		default:
			now += time.Duration(rng.Intn(1500)) * time.Millisecond
		}
	}
	return d
}

// TestUtilizationOverMatchesFullScan holds the indexed utilization scan to
// the full-history loop: over random histories and windows — negative
// starts, empty and inverted windows, windows before, inside and after the
// traffic — the two results are equal as float64s.
func TestUtilizationOverMatchesFullScan(t *testing.T) {
	outOfOrder := false
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := randomHistory(t, rng)
		spans := d.BusySpans()
		var last time.Duration
		for i, sp := range spans {
			if i > 0 && sp.Start < spans[i-1].Start {
				outOfOrder = true
			}
			last = max(last, sp.End)
		}
		horizon := int64(last + 2*time.Second)
		for range 200 {
			from := time.Duration(rng.Int63n(horizon)) - time.Second
			to := from + time.Duration(rng.Int63n(int64(3*time.Second))) - 200*time.Millisecond
			if got, want := d.UtilizationOver(from, to), fullScanUtilization(d, from, to); got != want {
				t.Fatalf("seed %d: UtilizationOver(%v, %v) = %v, full scan %v", seed, from, to, got, want)
			}
		}
	}
	if !outOfOrder {
		t.Fatal("no history recorded an interval out of start order; the generator lost its contention")
	}
}
