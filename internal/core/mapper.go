// Package core implements GYAN: the GPU-aware computation mapping and
// orchestration layer the paper adds to Galaxy (Section IV).
//
// It contains the two decision points GYAN patches into Galaxy's dispatch
// path:
//
//  1. The dynamic destination rule (Challenge II, Code 2) — given a tool's
//     wrapper requirements and the current GPU survey, choose a GPU or CPU
//     destination and set GALAXY_GPU_ENABLED accordingly.
//
//  2. The multi-GPU device allocation (Challenge IV, Pseudocode 2) — decide
//     which minor IDs go into CUDA_VISIBLE_DEVICES, under either the
//     "Process ID Approach" or the "Process Allocated Memory Approach".
//
// Both decisions consume only the nvidia-smi XML survey (via smi.Usage),
// never the simulator's internals, preserving the paper's architecture.
package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gyan/internal/jobconf"
	"gyan/internal/smi"
	"gyan/internal/toolxml"
)

// Policy selects the multi-GPU device allocation strategy.
type Policy int

// The two strategies of Section IV-C.
const (
	// PolicyPID is the "Process ID Approach": a GPU is available iff its
	// process list is empty; busy requests fall back to all available
	// GPUs, or scatter across every GPU when none is free.
	PolicyPID Policy = iota
	// PolicyMemory is the "Process Allocated Memory Approach": when the
	// requested device is busy, place the job on the single GPU with the
	// least allocated framebuffer memory.
	PolicyMemory
	// PolicyUtilization is an ablation beyond the paper's two strategies:
	// when the requested device is busy, place the job on the GPU with
	// the lowest reported SM utilization. Memory pressure and compute
	// pressure disagree for tools with small footprints but long kernels
	// (racon) versus large footprints with idle phases (bonito's model
	// load); this policy probes that axis.
	PolicyUtilization
)

// policyNames are the policies' flag spellings, indexed by Policy.
var policyNames = [...]string{PolicyPID: "pid", PolicyMemory: "memory", PolicyUtilization: "utilization"}

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p >= 0 && int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy returns the policy a name (pid, memory or utilization) spells.
func ParsePolicy(name string) (Policy, error) {
	for p, n := range policyNames {
		if n == name {
			return Policy(p), nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (have %s)", name, strings.Join(policyNames[:], ", "))
}

// Score ranks device minor under survey u; lower is preferred. It is the one
// definition of each policy's ranking: Allocate's memory and utilization
// branches and the batch scheduler's gang choice both take the lowest
// (score, minor). PID scores the resident processes, memory the used MiB,
// utilization the SM percentage.
func (p Policy) Score(minor int, u smi.Usage) float64 {
	switch p {
	case PolicyMemory:
		return float64(u.UsedMemMiBByGPU[minor])
	case PolicyUtilization:
		return float64(u.UtilPctByGPU[minor])
	default:
		return float64(len(u.ProcsByGPU[minor]))
	}
}

// Decision is the outcome of the dynamic destination rule for one job.
type Decision struct {
	// Destination is the chosen job_conf destination.
	Destination jobconf.Destination
	// GPUEnabled is the value of GALAXY_GPU_ENABLED exported to the tool
	// environment and the param dict.
	GPUEnabled bool
	// Devices are the allocated GPU minor IDs (empty for CPU placements).
	Devices []int
	// VisibleDevices is the CUDA_VISIBLE_DEVICES value ("" when unset).
	VisibleDevices string
	// Reason explains the choice, for job logs.
	Reason string
}

// GPUDestination and CPUDestination name the job_conf destinations the rule
// routes to — the names jobconf.DefaultJobConfXML declares. GPUDestination is
// also where a batch scheduler launches granted GPU jobs.
const (
	GPUDestination = "local_gpu"
	CPUDestination = "local_cpu"
)

// Mapper is GYAN's destination mapper. The zero value uses the PID policy.
type Mapper struct {
	// Policy selects the device-allocation strategy.
	Policy Policy
}

// Map runs the dynamic destination rule for a tool against the current GPU
// survey. It implements the paper's gpu_dynamic_destination rule plus
// Pseudocode 2's device selection:
//
//   - tools without the GPU compute requirement go to the CPU destination;
//   - GPU tools with no GPUs on the host fall back to the CPU destination
//     user-agnostically ("if GPUs are unavailable, the runner needs to
//     switch jobs to CPU nodes");
//   - otherwise the job goes to the GPU destination with
//     CUDA_VISIBLE_DEVICES chosen by the active policy.
func (m *Mapper) Map(tool *toolxml.Tool, conf *jobconf.Config, survey smi.Usage) (Decision, error) {
	if tool == nil {
		return Decision{}, fmt.Errorf("core: nil tool")
	}
	req, wantsGPU := tool.GPURequirement()
	if !wantsGPU {
		d, err := conf.Destination(CPUDestination)
		if err != nil {
			return Decision{}, err
		}
		return Decision{Destination: d, Reason: "tool has no GPU compute requirement"}, nil
	}
	if len(survey.AllGPUs) == 0 {
		d, err := conf.Destination(CPUDestination)
		if err != nil {
			return Decision{}, err
		}
		return Decision{Destination: d, Reason: "no GPUs on host; falling back to CPU destination"}, nil
	}
	devices, reason, err := m.Allocate(req, survey)
	if err != nil {
		return Decision{}, err
	}
	d, err := conf.Destination(GPUDestination)
	if err != nil {
		return Decision{}, err
	}
	return Decision{
		Destination:    d,
		GPUEnabled:     true,
		Devices:        devices,
		VisibleDevices: VisibleDevices(devices),
		Reason:         reason,
	}, nil
}

// Allocate picks the GPU minor IDs for a job with the given GPU requirement
// (Pseudocode 2 for PolicyPID; Section IV-C2 for PolicyMemory).
func (m *Mapper) Allocate(req toolxml.Requirement, survey smi.Usage) ([]int, string, error) {
	if len(survey.AllGPUs) == 0 {
		return nil, "", fmt.Errorf("core: allocation requested with no GPUs in survey")
	}
	requested, err := req.GPUIDs()
	if err != nil {
		return nil, "", err
	}
	for _, id := range requested {
		if !containsInt(survey.AllGPUs, id) {
			return nil, "", fmt.Errorf("core: requested GPU %d does not exist (host has %v)", id, survey.AllGPUs)
		}
	}

	// Requested devices that are all available win under either policy.
	if len(requested) > 0 && allAvailable(requested, survey) {
		return requested, fmt.Sprintf("requested GPU(s) %v available", requested), nil
	}

	why := "no device preference"
	if len(requested) > 0 {
		why = fmt.Sprintf("requested GPU(s) %v busy", requested)
	}
	switch m.Policy {
	case PolicyMemory, PolicyUtilization:
		dev := survey.AllGPUs[0] // AllGPUs ascends, so a tie keeps the lower minor
		for _, d := range survey.AllGPUs[1:] {
			if m.Policy.Score(d, survey) < m.Policy.Score(dev, survey) {
				dev = d
			}
		}
		what := "memory usage"
		if m.Policy == PolicyUtilization {
			what = "SM utilization"
		}
		return []int{dev}, fmt.Sprintf("%s policy: %s; GPU %d has minimum %s", m.Policy, why, dev, what), nil
	default: // PolicyPID: Pseudocode 2's available list, not a ranking
		if len(survey.AvailableGPUs) > 0 {
			avail := append([]int(nil), survey.AvailableGPUs...)
			sort.Ints(avail)
			return avail, fmt.Sprintf("pid policy: %s; using available GPU(s) %v", why, avail), nil
		}
		all := append([]int(nil), survey.AllGPUs...)
		sort.Ints(all)
		return all, fmt.Sprintf("pid policy: %s; all GPUs busy, scattering across all devices", why), nil
	}
}

func allAvailable(ids []int, survey smi.Usage) bool {
	for _, id := range ids {
		if !survey.Available(id) {
			return false
		}
	}
	return true
}

func containsInt(xs []int, want int) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// VisibleDevices renders minor IDs as a CUDA_VISIBLE_DEVICES value.
func VisibleDevices(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}
