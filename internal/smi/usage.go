package smi

import "sort"

// Usage is the distilled device survey GYAN's allocators work from — the
// output of the paper's get_gpu_usage function (Pseudocode 1) plus the
// per-GPU memory readings the "Process Allocated Memory Approach" adds.
type Usage struct {
	// AllGPUs lists every device minor ID on the host, ascending.
	AllGPUs []int
	// AvailableGPUs lists minor IDs whose process list is empty — the
	// paper's definition of an available GPU.
	AvailableGPUs []int
	// ProcsByGPU maps each minor ID to the PIDs executing on it
	// (the proc_gpu_dict of Pseudocode 1).
	ProcsByGPU map[int][]int
	// UsedMemMiBByGPU maps each minor ID to its fb_memory_usage.used
	// reading, consumed by the memory-based policy.
	UsedMemMiBByGPU map[int]int64
	// UtilPctByGPU maps each minor ID to its utilization.gpu_util
	// reading, consumed by the utilization-weighted policy (an ablation
	// beyond the paper's two strategies).
	UtilPctByGPU map[int]int
}

// UsageFromXML runs the Pseudocode-1 extraction over an `nvidia-smi -q -x`
// document: find every <gpu>, read its <minor_number>, collect the <pid> of
// each <process_info>, and classify GPUs with empty process lists as
// available.
func UsageFromXML(doc string) (Usage, error) {
	rep, err := ParseXML(doc)
	if err != nil {
		return Usage{}, err
	}
	return UsageFromReport(rep), nil
}

// UsageFromReport distills an already-parsed report.
func UsageFromReport(rep Report) Usage {
	n := len(rep.GPUs)
	u := Usage{
		AllGPUs:         make([]int, 0, n),
		ProcsByGPU:      make(map[int][]int, n),
		UsedMemMiBByGPU: make(map[int]int64, n),
		UtilPctByGPU:    make(map[int]int, n),
	}
	for _, g := range rep.GPUs {
		u.AllGPUs = append(u.AllGPUs, g.MinorNumber)
		pids := make([]int, 0, len(g.Processes))
		for _, p := range g.Processes {
			pids = append(pids, p.PID)
		}
		u.ProcsByGPU[g.MinorNumber] = pids
		u.UsedMemMiBByGPU[g.MinorNumber] = g.MemoryUsedMiB
		u.UtilPctByGPU[g.MinorNumber] = g.UtilizationPct
		if len(pids) == 0 {
			u.AvailableGPUs = append(u.AvailableGPUs, g.MinorNumber)
		}
	}
	sort.Ints(u.AllGPUs)
	sort.Ints(u.AvailableGPUs)
	return u
}

// Without returns a copy of the survey with the listed minor IDs removed
// from every view, as if the devices were not on the host. The dispatch path
// uses it to hide quarantined GPUs from the mapper and the batch scheduler.
func (u Usage) Without(minors []int) Usage {
	if len(minors) == 0 {
		return u
	}
	drop := make(map[int]bool, len(minors))
	for _, m := range minors {
		drop[m] = true
	}
	out := Usage{
		ProcsByGPU:      make(map[int][]int),
		UsedMemMiBByGPU: make(map[int]int64),
		UtilPctByGPU:    make(map[int]int),
	}
	for _, m := range u.AllGPUs {
		if drop[m] {
			continue
		}
		out.AllGPUs = append(out.AllGPUs, m)
		out.ProcsByGPU[m] = u.ProcsByGPU[m]
		out.UsedMemMiBByGPU[m] = u.UsedMemMiBByGPU[m]
		out.UtilPctByGPU[m] = u.UtilPctByGPU[m]
	}
	for _, m := range u.AvailableGPUs {
		if !drop[m] {
			out.AvailableGPUs = append(out.AvailableGPUs, m)
		}
	}
	return out
}

// Available reports whether the given minor ID is in the available list.
func (u Usage) Available(minor int) bool {
	for _, m := range u.AvailableGPUs {
		if m == minor {
			return true
		}
	}
	return false
}
