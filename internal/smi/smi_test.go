package smi

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gyan/internal/gpu"
)

// busyTestbed builds the paper's 2-GPU node with a racon process holding
// memory and executing on GPU 1, GPU 0 idle — the Fig. 10 scenario.
func busyTestbed(t testing.TB) (*gpu.Cluster, time.Duration) {
	t.Helper()
	c := gpu.NewPaperTestbed(nil)
	d1, _ := c.Device(1)
	s := d1.NewStream(c.NextPID(), "/usr/bin/racon_gpu", 0, nil)
	if err := s.Malloc(2671 << 20); err != nil {
		t.Fatal(err)
	}
	spec := d1.Spec()
	k := gpu.Kernel{
		Name:            "generatePOAKernel",
		Ops:             spec.PeakOpsPerSecond() * spec.ComputeEfficiency * 10,
		Blocks:          spec.SMs * 4,
		ThreadsPerBlock: 256,
	}
	if err := s.Launch(k); err != nil {
		t.Fatal(err)
	}
	// Sample mid-kernel so utilization is high.
	return c, 5 * time.Second
}

func TestSnapshotMatchesFig10Shape(t *testing.T) {
	c, at := busyTestbed(t)
	rep := Snapshot(c, at)
	if len(rep.GPUs) != 2 {
		t.Fatalf("snapshot has %d GPUs, want 2", len(rep.GPUs))
	}
	g0, g1 := rep.GPUs[0], rep.GPUs[1]
	if g0.MemoryUsedMiB != 63 {
		t.Errorf("idle GPU0 used = %d MiB, want 63", g0.MemoryUsedMiB)
	}
	if g0.UtilizationPct != 0 {
		t.Errorf("idle GPU0 util = %d%%, want 0", g0.UtilizationPct)
	}
	if g1.MemoryUsedMiB != 63+2671 {
		t.Errorf("busy GPU1 used = %d MiB, want 2734 (Fig. 10)", g1.MemoryUsedMiB)
	}
	if g1.UtilizationPct < 90 {
		t.Errorf("busy GPU1 util = %d%%, want >=90 (Fig. 10 shows 95%%)", g1.UtilizationPct)
	}
	if g1.MemoryTotalMiB != 11441 {
		t.Errorf("GPU1 total = %d MiB, want 11441", g1.MemoryTotalMiB)
	}
	if rep.DriverVersion != "455.45.01" || rep.CUDAVersion != "11.1" {
		t.Errorf("versions = %s / %s", rep.DriverVersion, rep.CUDAVersion)
	}
}

// The document carries every Report field but PCIeGen, and ParseXML reads
// each of them back.
func TestXMLRoundTrip(t *testing.T) {
	c, at := busyTestbed(t)
	want := Snapshot(c, at)
	doc, err := RenderXML(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseXML(doc)
	if err != nil {
		t.Fatal(err)
	}
	if want.Timestamp == 0 || len(want.GPUs[1].Processes) == 0 {
		t.Fatalf("the scenario should exercise the timestamp and a process row: %+v", want)
	}
	for i := range want.GPUs {
		want.GPUs[i].PCIeGen = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the report:\n got %+v\nwant %+v", got, want)
	}
}

func TestXMLContainsPseudocode1Fields(t *testing.T) {
	c, at := busyTestbed(t)
	doc, err := Query(c, at)
	if err != nil {
		t.Fatal(err)
	}
	// The exact tags the paper's BeautifulSoup extraction navigates.
	for _, tag := range []string{"<nvidia_smi_log>", "<gpu ", "<minor_number>",
		"<processes>", "<process_info>", "<pid>", "<fb_memory_usage>", "<used>"} {
		if !strings.Contains(doc, tag) {
			t.Errorf("XML missing %s", tag)
		}
	}
}

func TestUsageFromXMLClassifiesAvailability(t *testing.T) {
	c, at := busyTestbed(t)
	doc, err := Query(c, at)
	if err != nil {
		t.Fatal(err)
	}
	u, err := UsageFromXML(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.AllGPUs) != 2 || u.AllGPUs[0] != 0 || u.AllGPUs[1] != 1 {
		t.Fatalf("AllGPUs = %v", u.AllGPUs)
	}
	if len(u.AvailableGPUs) != 1 || u.AvailableGPUs[0] != 0 {
		t.Fatalf("AvailableGPUs = %v, want [0]", u.AvailableGPUs)
	}
	if !u.Available(0) || u.Available(1) {
		t.Error("Available() disagrees with AvailableGPUs")
	}
	if len(u.ProcsByGPU[1]) != 1 {
		t.Fatalf("ProcsByGPU[1] = %v, want one racon pid", u.ProcsByGPU[1])
	}
}

func TestConsoleRendersFig10Scenario(t *testing.T) {
	c, at := busyTestbed(t)
	out := Console(Snapshot(c, at))
	for _, want := range []string{
		"NVIDIA-SMI 455.45.01",
		"CUDA Version: 11.1",
		"Tesla K80",
		"63MiB / 11441MiB",
		"2734MiB / 11441MiB",
		"/usr/bin/racon_gpu",
		"Processes:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("console output missing %q\n%s", want, out)
		}
	}
}

func TestConsoleNoProcesses(t *testing.T) {
	c := gpu.NewPaperTestbed(nil)
	out := Console(Snapshot(c, 0))
	if !strings.Contains(out, "No running processes found") {
		t.Errorf("idle console output missing empty-process banner\n%s", out)
	}
}

func TestParseUnitForgiving(t *testing.T) {
	cases := []struct {
		in, unit string
		want     int
	}{
		{"11441 MiB", "MiB", 11441},
		{"95 %", "%", 95},
		{"60 W", "W", 60},
		{"N/A", "W", 0},
		{"", "MiB", 0},
		{"garbage MiB", "MiB", 0},
	}
	for _, tc := range cases {
		if got := parseUnit(tc.in, tc.unit); got != tc.want {
			t.Errorf("parseUnit(%q, %q) = %d, want %d", tc.in, tc.unit, got, tc.want)
		}
	}
}

func TestParseXMLRejectsGarbage(t *testing.T) {
	if _, err := ParseXML("not xml at all <<<"); err == nil {
		t.Fatal("garbage document parsed successfully")
	}
}

// Property: for any subset of devices given a process, the usage survey
// classifies exactly the complement as available.
func TestUsageAvailabilityProperty(t *testing.T) {
	f := func(busyMask uint8) bool {
		c := gpu.NewCluster(gpu.TeslaGK210(), 4, nil)
		for minor := 0; minor < 4; minor++ {
			if busyMask&(1<<minor) != 0 {
				d, _ := c.Device(minor)
				d.Attach(c.NextPID(), "tool")
			}
		}
		doc, err := Query(c, 0)
		if err != nil {
			return false
		}
		u, err := UsageFromXML(doc)
		if err != nil {
			return false
		}
		for minor := 0; minor < 4; minor++ {
			busy := busyMask&(1<<minor) != 0
			if u.Available(minor) == busy {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// snapshotSink keeps the benchmarked Snapshot call from being optimized away.
var snapshotSink Report

// BenchmarkSnapshotHistory times one Snapshot, the step every cached survey
// pays, against devices that have each run n separate kernels: the
// utilization window must cost the same however long the history behind it.
func BenchmarkSnapshotHistory(b *testing.B) {
	// ~100 ms a kernel: the one-second window covers about ten of them.
	k := gpu.Kernel{Name: "k", Ops: 7.6e10, Blocks: 13, ThreadsPerBlock: 256}
	for _, n := range []int{0, 300, 3000, 30000} {
		b.Run(fmt.Sprintf("intervals=%d", n), func(b *testing.B) {
			c := gpu.NewPaperTestbed(nil)
			var now time.Duration
			for _, d := range c.Devices() {
				s := d.NewStream(c.NextPID(), "/usr/bin/tool", 0, nil)
				for range n {
					if err := s.Launch(k); err != nil {
						b.Fatal(err)
					}
					s.Synchronize() // the next launch's overhead leaves a gap
				}
				now = max(now, s.Now())
			}
			if got := len(c.Devices()[0].BusySpans()); got != n {
				b.Fatalf("history has %d intervals, want %d", got, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				snapshotSink = Snapshot(c, now)
			}
		})
	}
}
