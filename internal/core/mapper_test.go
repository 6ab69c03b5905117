package core

import (
	"strings"
	"testing"
	"time"

	"gyan/internal/gpu"
	"gyan/internal/jobconf"
	"gyan/internal/smi"
	"gyan/internal/toolxml"
)

// surveyOf builds a usage survey from a cluster state via the full
// nvidia-smi XML round trip, exactly as GYAN consumes it.
func surveyOf(t *testing.T, c *gpu.Cluster) smi.Usage {
	t.Helper()
	doc, err := smi.Query(c, c.Clock().Now())
	if err != nil {
		t.Fatal(err)
	}
	u, err := smi.UsageFromXML(doc)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func raconTool(t *testing.T) *toolxml.Tool {
	t.Helper()
	tool, err := toolxml.RaconGPUTool()
	if err != nil {
		t.Fatal(err)
	}
	return tool
}

func occupy(t *testing.T, c *gpu.Cluster, minor int, memMiB int64) int {
	t.Helper()
	d, err := c.Device(minor)
	if err != nil {
		t.Fatal(err)
	}
	pid := c.NextPID()
	d.Attach(pid, "occupant")
	if err := d.Alloc(pid, memMiB<<20); err != nil {
		t.Fatal(err)
	}
	return pid
}

func TestCPUToolGoesToCPUDestination(t *testing.T) {
	tool, err := toolxml.Parse(toolxml.CPUOnlyToolXML)
	if err != nil {
		t.Fatal(err)
	}
	c := gpu.NewPaperTestbed(nil)
	var m Mapper
	dec, err := m.Map(tool, jobconf.Default(), surveyOf(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if dec.GPUEnabled || dec.Destination.ID != "local_cpu" {
		t.Fatalf("CPU tool mapped to %s (gpu=%v)", dec.Destination.ID, dec.GPUEnabled)
	}
	if len(dec.Devices) != 0 || dec.VisibleDevices != "" {
		t.Fatalf("CPU placement allocated devices: %+v", dec)
	}
}

func TestGPUToolOnIdleClusterGetsGPUDestination(t *testing.T) {
	c := gpu.NewPaperTestbed(nil)
	var m Mapper
	dec, err := m.Map(raconTool(t), jobconf.Default(), surveyOf(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.GPUEnabled {
		t.Fatal("GALAXY_GPU_ENABLED not set for GPU tool with idle GPUs")
	}
	if dec.Destination.ID != "local_gpu" {
		t.Fatalf("destination = %s", dec.Destination.ID)
	}
	if !dec.Destination.BoolParam("gpu_enabled") {
		t.Error("chosen destination lacks gpu_enabled param")
	}
	// No device preference in the wrapper: PID policy grants all
	// available GPUs.
	if dec.VisibleDevices != "0,1" {
		t.Fatalf("CUDA_VISIBLE_DEVICES = %q, want \"0,1\"", dec.VisibleDevices)
	}
}

func TestGPUToolFallsBackToCPUWhenNoGPUs(t *testing.T) {
	// A host without GPUs: empty survey (e.g. nvidia-smi absent).
	var m Mapper
	dec, err := m.Map(raconTool(t), jobconf.Default(), smi.Usage{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.GPUEnabled || dec.Destination.ID != "local_cpu" {
		t.Fatalf("expected user-agnostic CPU fallback, got %s (gpu=%v)",
			dec.Destination.ID, dec.GPUEnabled)
	}
	if !strings.Contains(dec.Reason, "falling back") {
		t.Errorf("reason = %q", dec.Reason)
	}
}

// requirementWithIDs builds the GPU compute requirement with the version tag
// carrying minor IDs, as Section IV-C specifies.
func requirementWithIDs(ids string) toolxml.Requirement {
	return toolxml.Requirement{Type: "compute", Name: "gpu", Version: ids}
}

func TestAllocateRequestedAvailableDevice(t *testing.T) {
	// Case 1: racon requests device 0, bonito device 1; both get their
	// requested GPU.
	c := gpu.NewPaperTestbed(nil)
	var m Mapper
	dev, _, err := m.Allocate(requirementWithIDs("0"), surveyOf(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if len(dev) != 1 || dev[0] != 0 {
		t.Fatalf("requested GPU 0, allocated %v", dev)
	}
	occupy(t, c, 0, 60)
	dev, _, err = m.Allocate(requirementWithIDs("1"), surveyOf(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if len(dev) != 1 || dev[0] != 1 {
		t.Fatalf("requested GPU 1, allocated %v", dev)
	}
}

func TestAllocateDivertsFromBusyRequestedDevice(t *testing.T) {
	// Case 2: bonito requests GPU 1 twice; the second instance must be
	// diverted to the free GPU 0.
	c := gpu.NewPaperTestbed(nil)
	occupy(t, c, 1, 3100)
	var m Mapper
	dev, reason, err := m.Allocate(requirementWithIDs("1"), surveyOf(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if len(dev) != 1 || dev[0] != 0 {
		t.Fatalf("busy request should divert to GPU 0, got %v (%s)", dev, reason)
	}
}

func TestAllocatePIDScattersWhenAllBusy(t *testing.T) {
	// Case 3: with both GPUs busy, upcoming processes scatter across all.
	c := gpu.NewPaperTestbed(nil)
	occupy(t, c, 0, 60)
	occupy(t, c, 1, 60)
	m := Mapper{Policy: PolicyPID}
	dev, _, err := m.Allocate(requirementWithIDs("0"), surveyOf(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if len(dev) != 2 || dev[0] != 0 || dev[1] != 1 {
		t.Fatalf("PID policy with all GPUs busy allocated %v, want [0 1]", dev)
	}
}

func TestAllocateMemoryPolicyPicksMinMemory(t *testing.T) {
	// Case 4: racon on GPU 0 (60 MiB), bonito on GPU 1 (3 GiB); the
	// second bonito goes to GPU 0, the minimum-memory device.
	c := gpu.NewPaperTestbed(nil)
	occupy(t, c, 0, 60)
	occupy(t, c, 1, 3132)
	m := Mapper{Policy: PolicyMemory}
	dev, reason, err := m.Allocate(requirementWithIDs("1"), surveyOf(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if len(dev) != 1 || dev[0] != 0 {
		t.Fatalf("memory policy allocated %v (%s), want [0]", dev, reason)
	}
	if !strings.Contains(reason, "minimum memory") {
		t.Errorf("reason = %q", reason)
	}
}

func TestAllocateRejectsNonexistentDevice(t *testing.T) {
	c := gpu.NewPaperTestbed(nil)
	var m Mapper
	if _, _, err := m.Allocate(requirementWithIDs("7"), surveyOf(t, c)); err == nil {
		t.Fatal("allocation for nonexistent GPU 7 succeeded")
	}
}

func TestAllocateMultiDeviceRequest(t *testing.T) {
	c := gpu.NewPaperTestbed(nil)
	var m Mapper
	dev, _, err := m.Allocate(requirementWithIDs("0,1"), surveyOf(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if len(dev) != 2 {
		t.Fatalf("multi-GPU request allocated %v", dev)
	}
}

func TestAllocateBadVersionTag(t *testing.T) {
	c := gpu.NewPaperTestbed(nil)
	var m Mapper
	if _, _, err := m.Allocate(requirementWithIDs("first"), surveyOf(t, c)); err == nil {
		t.Fatal("garbage version tag accepted")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyPID.String() != "pid" || PolicyMemory.String() != "memory" ||
		PolicyUtilization.String() != "utilization" {
		t.Fatalf("policy names: %s, %s, %s", PolicyPID, PolicyMemory, PolicyUtilization)
	}
}

// ParsePolicy reads back every name String writes, and an unknown name's
// error lists all three.
func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{PolicyPID, PolicyMemory, PolicyUtilization} {
		if got, err := ParsePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	_, err := ParsePolicy("fifo")
	if err == nil || !strings.Contains(err.Error(), "pid, memory, utilization") {
		t.Errorf("ParsePolicy(fifo) error = %v, want one naming pid, memory, utilization", err)
	}
}

// TestAllocatePicksLowestScoreThenMinor: with no device preference, the
// memory and utilization policies place on the device with the lowest
// reading, ties going to the lower minor, over every 3-GPU survey whose
// readings take three values (so ties are common). Utilization runs against
// memory, so the two policies disagree; PID's Score is the process count.
func TestAllocatePicksLowestScoreThenMinor(t *testing.T) {
	for combo := 0; combo < 27; combo++ {
		u := smi.Usage{
			AllGPUs:         []int{0, 1, 2},
			ProcsByGPU:      map[int][]int{},
			UsedMemMiBByGPU: map[int]int64{},
			UtilPctByGPU:    map[int]int{},
		}
		want := map[Policy]int{PolicyMemory: 0, PolicyUtilization: 0}
		for m, c := 0, combo; m < 3; m, c = m+1, c/3 {
			u.ProcsByGPU[m] = make([]int, c%3)
			u.UsedMemMiBByGPU[m] = int64(c%3) * 100
			u.UtilPctByGPU[m] = (2 - c%3) * 30
			if u.UsedMemMiBByGPU[m] < u.UsedMemMiBByGPU[want[PolicyMemory]] {
				want[PolicyMemory] = m
			}
			if u.UtilPctByGPU[m] < u.UtilPctByGPU[want[PolicyUtilization]] {
				want[PolicyUtilization] = m
			}
			if got := PolicyPID.Score(m, u); got != float64(c%3) {
				t.Errorf("pid score of GPU %d = %v, want its %d processes", m, got, c%3)
			}
		}
		for p, w := range want {
			got, _, err := (&Mapper{Policy: p}).Allocate(gpuReq(""), u)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] != w {
				t.Errorf("%v over survey %d: allocated %v, want [%d]", p, combo, got, w)
			}
		}
	}
}

// utilScenario builds a cluster where the two pressure signals disagree:
// GPU 0 is idle but holds a large allocation; GPU 1 is compute-busy with a
// small footprint.
func utilScenario(t *testing.T) smi.Usage {
	t.Helper()
	c := gpu.NewPaperTestbed(nil)
	occupy(t, c, 0, 6000) // memory-heavy, idle
	d1, _ := c.Device(1)
	s := d1.NewStream(c.NextPID(), "busy", 0, nil)
	spec := d1.Spec()
	if err := s.Launch(gpu.Kernel{
		Name:            "k",
		Ops:             spec.PeakOpsPerSecond() * spec.ComputeEfficiency * 100,
		Blocks:          4 * spec.SMs,
		ThreadsPerBlock: 256,
	}); err != nil {
		t.Fatal(err)
	}
	// Survey mid-kernel so GPU 1 reports high utilization.
	doc, err := smi.Query(c, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	u, err := smi.UsageFromXML(doc)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestUtilizationPolicyDisagreesWithMemoryPolicy(t *testing.T) {
	survey := utilScenario(t)
	req := requirementWithIDs("") // no preference, both GPUs busy

	mem := Mapper{Policy: PolicyMemory}
	memDev, _, err := mem.Allocate(req, survey)
	if err != nil {
		t.Fatal(err)
	}
	util := Mapper{Policy: PolicyUtilization}
	utilDev, reason, err := util.Allocate(req, survey)
	if err != nil {
		t.Fatal(err)
	}
	// Memory policy avoids the 6 GiB allocation (picks GPU 1); the
	// utilization policy avoids the spinning SMs (picks GPU 0).
	if len(memDev) != 1 || memDev[0] != 1 {
		t.Fatalf("memory policy chose %v, want [1]", memDev)
	}
	if len(utilDev) != 1 || utilDev[0] != 0 {
		t.Fatalf("utilization policy chose %v (%s), want [0]", utilDev, reason)
	}
	if !strings.Contains(reason, "minimum SM utilization") {
		t.Errorf("reason = %q", reason)
	}
}

func TestUtilizationPolicyHonorsAvailableRequest(t *testing.T) {
	c := gpu.NewPaperTestbed(nil)
	m := Mapper{Policy: PolicyUtilization}
	dev, _, err := m.Allocate(requirementWithIDs("1"), surveyOf(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if len(dev) != 1 || dev[0] != 1 {
		t.Fatalf("available request overridden: %v", dev)
	}
}

func TestMapNilTool(t *testing.T) {
	var m Mapper
	if _, err := m.Map(nil, jobconf.Default(), smi.Usage{}); err == nil {
		t.Fatal("nil tool accepted")
	}
}

func TestDecisionReasonIsInformative(t *testing.T) {
	c := gpu.NewPaperTestbed(nil)
	var m Mapper
	dec, err := m.Map(raconTool(t), jobconf.Default(), surveyOf(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Reason == "" {
		t.Fatal("decision carries no reason")
	}
}

// gpuReq builds a bare GPU compute requirement with the given version tag.
func gpuReq(version string) toolxml.Requirement {
	return toolxml.Requirement{Type: "compute", Name: "gpu", Version: version}
}

func TestAllocateEmptySurveyErrors(t *testing.T) {
	var m Mapper
	for _, policy := range []Policy{PolicyPID, PolicyMemory, PolicyUtilization} {
		m.Policy = policy
		if _, _, err := m.Allocate(gpuReq(""), smi.Usage{}); err == nil {
			t.Errorf("%v: empty survey did not error", policy)
		} else if !strings.Contains(err.Error(), "no GPUs in survey") {
			t.Errorf("%v: empty survey error = %v", policy, err)
		}
	}
}

func TestAllocateVersionTagListPartiallyBusy(t *testing.T) {
	// The wrapper pins GPUs 0,1 but device 0 is occupied: the PID policy
	// must divert to the free device rather than honor a half-busy list.
	c := gpu.NewPaperTestbed(nil)
	occupy(t, c, 0, 512)
	var m Mapper
	devices, reason, err := m.Allocate(gpuReq("0,1"), surveyOf(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if len(devices) != 1 || devices[0] != 1 {
		t.Fatalf("allocated %v, want the free device [1]", devices)
	}
	if !strings.Contains(reason, "busy") {
		t.Errorf("reason %q does not explain the diversion", reason)
	}
}

func TestAllocateVersionTagListAllFree(t *testing.T) {
	// Both pinned devices idle: the explicit list wins verbatim.
	c := gpu.NewPaperTestbed(nil)
	var m Mapper
	devices, reason, err := m.Allocate(gpuReq("1,0"), surveyOf(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if len(devices) != 2 || devices[0] != 1 || devices[1] != 0 {
		t.Fatalf("allocated %v, want the requested order [1 0]", devices)
	}
	if !strings.Contains(reason, "available") {
		t.Errorf("reason = %q", reason)
	}
}

func TestAllocateMoreGPUsThanCluster(t *testing.T) {
	// Asking for device IDs beyond the 2-GPU testbed names the missing
	// device and the real inventory.
	c := gpu.NewPaperTestbed(nil)
	var m Mapper
	_, _, err := m.Allocate(gpuReq("0,1,2,3"), surveyOf(t, c))
	if err == nil {
		t.Fatal("4-device request on a 2-GPU host did not error")
	}
	if !strings.Contains(err.Error(), "GPU 2 does not exist") ||
		!strings.Contains(err.Error(), "[0 1]") {
		t.Errorf("error %v does not name the missing device and inventory", err)
	}
}
