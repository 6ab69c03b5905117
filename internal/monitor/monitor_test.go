package monitor

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"gyan/internal/gpu"
	"gyan/internal/sim"
)

// busyCluster runs a ~5s kernel on GPU 0 starting at t=0.
func busyCluster(t *testing.T) *gpu.Cluster {
	t.Helper()
	c := gpu.NewPaperTestbed(nil)
	d, _ := c.Device(0)
	s := d.NewStream(c.NextPID(), "/usr/bin/racon_gpu", 0, nil)
	if err := s.Malloc(1 << 30); err != nil {
		t.Fatal(err)
	}
	spec := d.Spec()
	k := gpu.Kernel{
		Name:            "generatePOAKernel",
		Ops:             spec.PeakOpsPerSecond() * spec.ComputeEfficiency * 5,
		Blocks:          4 * spec.SMs,
		ThreadsPerBlock: 256,
	}
	if err := s.Launch(k); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSampleNowRecordsAllDevices(t *testing.T) {
	c := busyCluster(t)
	m := New(c)
	m.SampleNow(2 * time.Second)
	samples := m.Samples()
	if len(samples) != 2 {
		t.Fatalf("one tick recorded %d samples, want 2 (one per device)", len(samples))
	}
	s0, s1 := samples[0], samples[1]
	if s0.Device != 0 || s1.Device != 1 {
		t.Fatalf("device order: %d, %d", s0.Device, s1.Device)
	}
	if s0.UtilPct < 90 {
		t.Errorf("busy GPU0 utilization = %.1f", s0.UtilPct)
	}
	if s1.UtilPct != 0 {
		t.Errorf("idle GPU1 utilization = %.1f", s1.UtilPct)
	}
	if s0.MemUsedMiB != 63+1024 {
		t.Errorf("GPU0 memory = %d MiB", s0.MemUsedMiB)
	}
	if s0.PCIeGen != 3 || s0.MemTotalMiB != 11441 {
		t.Errorf("static fields: gen=%d total=%d", s0.PCIeGen, s0.MemTotalMiB)
	}
}

// tickTimes lists the distinct sample instants in the log, in order.
func tickTimes(samples []Sample) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if len(out) == 0 || out[len(out)-1] != s.At {
			out = append(out, s.At)
		}
	}
	return out
}

func seconds(ns ...int) []time.Duration {
	out := make([]time.Duration, len(ns))
	for i, n := range ns {
		out[i] = time.Duration(n) * time.Second
	}
	return out
}

// The sampler runs while the engine has work and for one tick after it: the
// job's last event sits at 4.5s, so the 5s sample still averages half a
// second of kernel and the closing sample at 6s is the first to cover none.
func TestWatchSamplesWhileWorkIsLive(t *testing.T) {
	c := busyCluster(t)
	d, _ := c.Device(0)
	spans := d.BusySpans()
	kernelEnd := spans[len(spans)-1].End
	if kernelEnd <= 4*time.Second || kernelEnd >= 5*time.Second+time.Second/2 {
		t.Fatalf("busyCluster's kernel ends at %v; the test wants it inside the 5s or 6s window", kernelEnd)
	}
	engine := sim.NewEngine(c.Clock())
	m := New(c)
	engine.Schedule(4500*time.Millisecond, func(time.Duration) {})
	m.Watch(engine, time.Second)
	engine.Run()

	samples := m.Samples()
	if got, want := tickTimes(samples), seconds(1, 2, 3, 4, 5, 6); !reflect.DeepEqual(got, want) {
		t.Fatalf("ticked at %v, want %v", got, want)
	}
	if len(samples) != 12 {
		t.Fatalf("recorded %d samples, want 12 (6 ticks x 2 devices)", len(samples))
	}
	if engine.Pending() != 0 {
		t.Fatalf("the sampler left %d events pending", engine.Pending())
	}
	last := m.LastByDevice()
	if last[1].At != 6*time.Second || last[1].UtilPct != 0 {
		t.Errorf("closing sample of idle GPU1 = %+v, want utilization 0 at 6s", last[1])
	}
}

// Every submit calls Watch; the monitor has one ticker however many arm it.
func TestWatchTwiceTicksOnce(t *testing.T) {
	c := busyCluster(t)
	engine := sim.NewEngine(c.Clock())
	m := New(c)
	engine.Schedule(2500*time.Millisecond, func(time.Duration) {})
	m.Watch(engine, time.Second)
	m.Watch(engine, time.Second)
	engine.Run()
	if got, want := tickTimes(m.Samples()), seconds(1, 2, 3, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("ticked at %v, want %v", got, want)
	}
	if got := len(m.Samples()); got != 8 {
		t.Fatalf("recorded %d samples, want 8: two Watch calls must share one tick series", got)
	}
}

// Work that arrives while only the closing tick is pending keeps the
// sampler alive: that tick's window covers the new work.
func TestWatchRearmsOnNewWork(t *testing.T) {
	c := busyCluster(t)
	engine := sim.NewEngine(c.Clock())
	m := New(c)
	engine.Schedule(500*time.Millisecond, func(time.Duration) {})
	m.Watch(engine, time.Second)
	engine.RunUntil(time.Second) // tick 1 saw no work and planted the closing tick
	engine.Schedule(1200*time.Millisecond, func(time.Duration) {})
	m.Watch(engine, time.Second)
	engine.Run()
	if got, want := tickTimes(m.Samples()), seconds(1, 2, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("ticked at %v, want %v", got, want)
	}
}

func TestWatchIdleEngine(t *testing.T) {
	engine := sim.NewEngine(nil)
	m := New(gpu.NewPaperTestbed(engine.Clock()))
	m.Watch(engine, time.Second)
	engine.Run()
	if got, want := tickTimes(m.Samples()), seconds(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("ticked at %v, want the closing sample alone %v", got, want)
	}
	if engine.Pending() != 0 {
		t.Fatalf("the sampler left %d events pending", engine.Pending())
	}
	// Stopped is not spent: the next submit arms it again.
	engine.After(1500*time.Millisecond, func(time.Duration) {})
	m.Watch(engine, time.Second)
	engine.Run()
	if got, want := tickTimes(m.Samples()), seconds(1, 2, 3, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("after re-arming ticked at %v, want %v", got, want)
	}
}

func TestWatchRejectsBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero period accepted")
		}
	}()
	New(gpu.NewPaperTestbed(nil)).Watch(sim.NewEngine(nil), 0)
}

func TestStatsAggregation(t *testing.T) {
	c := busyCluster(t)
	engine := sim.NewEngine(c.Clock())
	m := New(c)
	engine.Schedule(6500*time.Millisecond, func(time.Duration) {})
	m.Watch(engine, time.Second) // ticks at 1..7s, closing sample at 8s
	engine.Run()
	stats := m.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats for %d devices", len(stats))
	}
	gpu0 := stats[0]
	if gpu0.Device != 0 || gpu0.Samples != 8 {
		t.Fatalf("gpu0 stats header: %+v", gpu0)
	}
	// Kernel runs ~5s of the 8s window: max ~100, min 0, avg in between.
	if gpu0.UtilMax < 90 {
		t.Errorf("UtilMax = %.1f", gpu0.UtilMax)
	}
	if gpu0.UtilMin != 0 {
		t.Errorf("UtilMin = %.1f", gpu0.UtilMin)
	}
	if gpu0.UtilAvg <= gpu0.UtilMin || gpu0.UtilAvg >= gpu0.UtilMax {
		t.Errorf("UtilAvg = %.1f outside (min, max)", gpu0.UtilAvg)
	}
	if gpu0.MemMaxMiB != 63+1024 {
		t.Errorf("MemMaxMiB = %d", gpu0.MemMaxMiB)
	}
	if gpu0.PeakProcesses != 1 {
		t.Errorf("PeakProcesses = %d", gpu0.PeakProcesses)
	}
	if stats[1].UtilMax != 0 {
		t.Errorf("idle GPU1 UtilMax = %.1f", stats[1].UtilMax)
	}
}

func TestWriteCSV(t *testing.T) {
	c := busyCluster(t)
	m := New(c)
	m.SampleNow(time.Second)
	var b strings.Builder
	if err := m.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 devices
		t.Fatalf("CSV has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "timestamp_s,gpu,utilization.gpu_pct") {
		t.Errorf("CSV header = %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1.000,0,") {
		t.Errorf("first row = %s", lines[1])
	}
}

func TestStatsEmpty(t *testing.T) {
	m := New(gpu.NewPaperTestbed(nil))
	if got := m.Stats(); len(got) != 0 {
		t.Fatalf("stats on empty monitor: %v", got)
	}
}

// referenceStats is the post-processing step as a fold over the whole
// chronological log — what Stats computed before the aggregates were kept
// running. Stats must agree with it field for field.
func referenceStats(samples []Sample) []DeviceStats {
	byDev := map[int]*DeviceStats{}
	for _, s := range samples {
		st := byDev[s.Device]
		if st == nil {
			st = &DeviceStats{
				Device: s.Device, UtilMin: s.UtilPct, UtilMax: s.UtilPct,
				MemMinMiB: s.MemUsedMiB, MemMaxMiB: s.MemUsedMiB,
				FirstSample: s.At, LastSample: s.At,
			}
			byDev[s.Device] = st
		}
		st.Samples++
		st.UtilAvg += s.UtilPct
		st.MemAvgMiB += float64(s.MemUsedMiB)
		if s.UtilPct < st.UtilMin {
			st.UtilMin = s.UtilPct
		}
		if s.UtilPct > st.UtilMax {
			st.UtilMax = s.UtilPct
		}
		if s.MemUsedMiB < st.MemMinMiB {
			st.MemMinMiB = s.MemUsedMiB
		}
		if s.MemUsedMiB > st.MemMaxMiB {
			st.MemMaxMiB = s.MemUsedMiB
		}
		if s.ProcessCount > st.PeakProcesses {
			st.PeakProcesses = s.ProcessCount
		}
		if s.At < st.FirstSample {
			st.FirstSample = s.At
		}
		if s.At > st.LastSample {
			st.LastSample = s.At
		}
	}
	out := make([]DeviceStats, 0, len(byDev))
	for _, st := range byDev {
		st.UtilAvg /= float64(st.Samples)
		st.MemAvgMiB /= float64(st.Samples)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out
}

// The aggregates are exact over the monitor's life and independent of what
// the log still holds: over a seeded stream half again as long as the ring,
// Stats equals the reference fold of the whole stream while Samples is the
// stream's newest ring-full, in order.
func TestStatsAreExactBeyondTheRing(t *testing.T) {
	c := gpu.NewPaperTestbed(nil)
	m := New(c)
	capacity := ringTicks * c.DeviceCount()
	rng := sim.NewRNG(18)
	var stream []Sample
	for tick := 1; len(stream) < capacity*3/2; tick++ {
		for dev := 0; dev < c.DeviceCount(); dev++ {
			used := int64(rng.Intn(11441))
			s := Sample{
				At:           time.Duration(tick) * time.Second,
				Device:       dev,
				UtilPct:      100 * rng.Float64(),
				MemUtilPct:   100 * float64(used) / 11441,
				MemUsedMiB:   used,
				MemTotalMiB:  11441,
				PCIeGen:      3,
				ProcessCount: rng.Intn(5),
			}
			stream = append(stream, s)
			m.mu.Lock()
			m.record(s)
			m.mu.Unlock()
		}
	}

	if got, want := m.Stats(), referenceStats(stream); !reflect.DeepEqual(got, want) {
		t.Errorf("Stats diverged from the reference fold:\n got %+v\nwant %+v", got, want)
	}
	if got := m.Stats()[0].Samples; got <= ringTicks {
		t.Errorf("DeviceStats.Samples = %d: it is the lifetime count, not the ring's %d", got, ringTicks)
	}
	got := m.Samples()
	if len(got) != capacity {
		t.Fatalf("log holds %d samples, want the ring's capacity %d", len(got), capacity)
	}
	if !reflect.DeepEqual(got, stream[len(stream)-capacity:]) {
		t.Error("log is not the newest ring-full of the stream in chronological order")
	}
	last := m.LastByDevice()
	for dev := 0; dev < c.DeviceCount(); dev++ {
		want := stream[len(stream)-c.DeviceCount()+dev]
		if last[dev] != want {
			t.Errorf("LastByDevice[%d] = %+v, want the device's final sample %+v", dev, last[dev], want)
		}
	}
}
