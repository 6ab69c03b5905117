// Package smi emulates the NVIDIA System Management Interface over the
// simulated GPU cluster.
//
// GYAN's multi-GPU allocator does not link against a driver library for its
// device survey; it shells out to `nvidia-smi -q -x` and parses the XML
// (paper, Pseudocode 1). This package reproduces that full path:
//
//	Snapshot  -> structured view of the cluster at a virtual instant
//	RenderXML -> the nvidia_smi_log XML document
//	ParseXML  -> the consumer side (what BeautifulSoup does in the paper)
//	Console   -> the human-readable table of Figs. 10 and 11
//
// Keeping the XML round-trip in the loop (rather than letting the allocator
// peek at cluster internals) preserves the paper's architecture and its
// failure modes: the allocator only knows what nvidia-smi reports. Every
// consumer that places work — the mapper, the batch scheduler, a cluster
// member's load gossip — surveys through one Cache, which renders and parses
// the XML whenever the device report changed and otherwise serves the parse
// it already holds; Snapshot alone serves the displays. Both halves of the
// round trip are written by hand for this one schema (xml.go): a miss costs
// about 15 µs and 18 allocations for the two-GPU testbed, a tenth of what a
// reflection codec costs.
package smi

import (
	"fmt"
	"time"

	"gyan/internal/gpu"
)

// DriverVersion and CUDAVersion are the versions the paper's testbed
// reports (Fig. 10 header).
const (
	DriverVersion = "455.45.01"
	CUDAVersion   = "11.1"
)

// ProcessInfo is one row of a GPU's process table.
type ProcessInfo struct {
	PID           int
	Name          string
	Type          string
	UsedMemoryMiB int64
}

// GPUInfo is the per-device section of an nvidia-smi report.
type GPUInfo struct {
	MinorNumber    int
	ProductName    string
	UUID           string
	BusID          string
	FanPercent     int // -1 renders as N/A (passively cooled boards)
	TemperatureC   int
	PerfState      string
	PowerDrawW     int
	PowerLimitW    int
	MemoryTotalMiB int64
	MemoryUsedMiB  int64
	UtilizationPct int
	PCIeGen        int
	Processes      []ProcessInfo
}

// Report is a complete nvidia-smi snapshot.
type Report struct {
	Timestamp     time.Duration
	DriverVersion string
	CUDAVersion   string
	GPUs          []GPUInfo
}

// utilWindow is the trailing window nvidia-smi averages utilization over.
const utilWindow = time.Second

// Snapshot surveys the cluster at virtual time `at` and returns a structured
// report. Utilization is averaged over the trailing second, matching how the
// real tool samples.
func Snapshot(c *gpu.Cluster, at time.Duration) Report {
	rep := Report{
		Timestamp:     at,
		DriverVersion: DriverVersion,
		CUDAVersion:   CUDAVersion,
	}
	for _, d := range c.Devices() {
		spec := d.Spec()
		from := at - utilWindow
		if from < 0 {
			from = 0
		}
		util := int(d.UtilizationOver(from, at) + 0.5)
		gi := GPUInfo{
			MinorNumber:    d.Minor(),
			ProductName:    spec.Name,
			UUID:           d.UUID(),
			BusID:          d.BusID(),
			FanPercent:     -1,
			TemperatureC:   deviceTemp(util),
			PerfState:      "P0",
			PowerDrawW:     spec.IdlePowerWatts + (spec.PowerLimitWatts-spec.IdlePowerWatts)*util/100,
			PowerLimitW:    spec.PowerLimitWatts,
			MemoryTotalMiB: spec.MemoryMiB(),
			MemoryUsedMiB:  d.UsedMemoryBytes() / (1 << 20),
			UtilizationPct: util,
			PCIeGen:        spec.PCIeGen,
		}
		for _, p := range d.Processes() {
			gi.Processes = append(gi.Processes, ProcessInfo{
				PID:           p.PID,
				Name:          p.Name,
				Type:          p.Type,
				UsedMemoryMiB: p.MemoryMiB(),
			})
		}
		rep.GPUs = append(rep.GPUs, gi)
	}
	return rep
}

// deviceTemp is a simple thermal model: idle boards sit at 40C and a fully
// utilized GK210 under sustained load reaches ~70C.
func deviceTemp(utilPct int) int {
	t := 40 + utilPct*30/100
	if t > 95 {
		t = 95
	}
	return t
}

// Query renders the cluster state as the `nvidia-smi -q -x` XML document, the
// exact interface GYAN's get_gpu_usage consumes.
func Query(c *gpu.Cluster, at time.Duration) (string, error) {
	return RenderXML(Snapshot(c, at))
}

func (p ProcessInfo) String() string {
	return fmt.Sprintf("pid %d (%s) %d MiB", p.PID, p.Name, p.UsedMemoryMiB)
}
