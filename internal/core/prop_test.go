package core

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gyan/internal/jobconf"
	"gyan/internal/sim"
	"gyan/internal/smi"
	"gyan/internal/toolxml"
)

// Property test of the paper's decision procedure: seeded random device
// tables and requirements, Mapper.Allocate and Mapper.Map against an
// executable transcription of Pseudocode 1-2. The generator runs off
// sim.NewRNG, so a failing case number reproduces exactly; a counterexample
// is checked in as a named case in propNamedCases.

var propConf = jobconf.Default()

// propDevice is one row of the host's device table as nvidia-smi shows it.
type propDevice struct {
	minor, procs, utilPct int
	memMiB                int64
}

// propSurvey is Pseudocode 1 (get_gpu_usage): every device, the ones with an
// empty process list as available, and the per-device readings.
func propSurvey(devs []propDevice) smi.Usage {
	u := smi.Usage{ProcsByGPU: map[int][]int{}, UsedMemMiBByGPU: map[int]int64{}, UtilPctByGPU: map[int]int{}}
	for _, d := range devs {
		u.AllGPUs = append(u.AllGPUs, d.minor)
		if d.procs == 0 {
			u.AvailableGPUs = append(u.AvailableGPUs, d.minor)
		}
		for p := 0; p < d.procs; p++ {
			u.ProcsByGPU[d.minor] = append(u.ProcsByGPU[d.minor], 1000*d.minor+p)
		}
		u.UsedMemMiBByGPU[d.minor] = d.memMiB
		u.UtilPctByGPU[d.minor] = d.utilPct
	}
	return u
}

// propAllocate is Pseudocode 2 and Section IV-C2 read off the page, over the
// device table itself rather than the survey's helpers. devs ascend by minor.
func propAllocate(policy Policy, devs []propDevice, requested []int) (devices []int, ok bool) {
	byMinor := map[int]propDevice{}
	for _, d := range devs {
		byMinor[d.minor] = d
	}
	if len(devs) == 0 {
		return nil, false
	}
	requestedFree := len(requested) > 0
	for _, id := range requested {
		d, exists := byMinor[id]
		if !exists {
			return nil, false
		}
		requestedFree = requestedFree && d.procs == 0
	}
	if requestedFree {
		return requested, true
	}
	least := func(reading func(propDevice) int64) []int {
		best := devs[0]
		for _, d := range devs[1:] {
			if reading(d) < reading(best) {
				best = d
			}
		}
		return []int{best.minor}
	}
	switch policy {
	case PolicyMemory:
		return least(func(d propDevice) int64 { return d.memMiB }), true
	case PolicyUtilization:
		return least(func(d propDevice) int64 { return int64(d.utilPct) }), true
	}
	var free, all []int
	for _, d := range devs {
		all = append(all, d.minor)
		if d.procs == 0 {
			free = append(free, d.minor)
		}
	}
	if len(free) > 0 {
		return free, true
	}
	return all, true // scatter only when nothing is free
}

// propCheck holds Allocate and Map to the transcription for one case.
func propCheck(t *testing.T, name string, policy Policy, devs []propDevice, requested []int) {
	t.Helper()
	ids := make([]string, len(requested))
	for i, id := range requested {
		ids[i] = strconv.Itoa(id)
	}
	req := toolxml.Requirement{Type: "compute", Name: "gpu", Version: strings.Join(ids, ",")}
	survey := propSurvey(devs)
	ctx := fmt.Sprintf("%s: policy %v devices %+v requested %v", name, policy, devs, requested)

	m := &Mapper{Policy: policy}
	want, ok := propAllocate(policy, devs, requested)
	got, _, err := m.Allocate(req, survey)
	if (err == nil) != ok {
		t.Fatalf("%s: Allocate error %v, transcription ok=%v", ctx, err, ok)
	}
	if ok && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Allocate chose %v, transcription %v", ctx, got, want)
	}
	for _, d := range got {
		if !containsInt(survey.AllGPUs, d) {
			t.Fatalf("%s: Allocate chose device %d, not on the host", ctx, d)
		}
	}

	tool := &toolxml.Tool{ID: "prop"}
	tool.Requirements.Items = []toolxml.Requirement{req}
	dec, err := m.Map(tool, propConf, survey)
	switch {
	case len(devs) == 0: // no GPUs: the CPU destination, user-agnostically
		if err != nil || dec.GPUEnabled || len(dec.Devices) > 0 || dec.VisibleDevices != "" || dec.Destination.ID != "local_cpu" {
			t.Fatalf("%s: Map on an empty survey gave %+v, %v; want the CPU destination", ctx, dec, err)
		}
	case !ok:
		if err == nil {
			t.Fatalf("%s: Map accepted what Allocate refuses: %+v", ctx, dec)
		}
	default:
		if err != nil || !dec.GPUEnabled || !reflect.DeepEqual(dec.Devices, want) ||
			dec.VisibleDevices != VisibleDevices(want) || dec.Destination.ID != "local_gpu" {
			t.Fatalf("%s: Map gave %+v, %v; want devices %v on the GPU destination", ctx, dec, err, want)
		}
	}
}

// propNamedCases are the counterexamples the random search has found, kept
// forever. (None so far: the 20 000 cases below all agree.)
var propNamedCases = []struct {
	name      string
	policy    Policy
	devs      []propDevice
	requested []int
}{}

func TestMapperMatchesPseudocode(t *testing.T) {
	for _, c := range propNamedCases {
		propCheck(t, c.name, c.policy, c.devs, c.requested)
	}
	rng := sim.NewRNG(2021)
	for i := 0; i < 20000; i++ {
		// 0-6 devices with distinct, not necessarily contiguous, minors.
		minors := rng.Perm(10)[:rng.Intn(7)]
		sort.Ints(minors)
		var devs []propDevice
		for _, minor := range minors {
			d := propDevice{minor: minor}
			if rng.Intn(2) == 0 { // busy; small ranges so readings tie
				d.procs, d.memMiB, d.utilPct = 1+rng.Intn(3), int64(rng.Intn(4))*512, rng.Intn(4)*25
			}
			devs = append(devs, d)
		}
		// No preference, or up to three distinct IDs in any order, now and
		// then one the host does not have.
		var requested []int
		for _, id := range rng.Perm(10)[:rng.Intn(4)] {
			if containsInt(minors, id) || rng.Intn(8) == 0 {
				requested = append(requested, id)
			}
		}
		propCheck(t, fmt.Sprintf("case %d", i), Policy(rng.Intn(3)), devs, requested)
	}
}
