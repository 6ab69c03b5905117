// Package nvprof is a profiler for the simulated GPU substrate, modeled on
// the NVIDIA Visual Profiler workflow the paper uses in Section VI.
//
// The paper runs NVProf twice per tool: once to find hotspot functions (the
// breakdowns of Fig. 4 for Racon and Fig. 6 for Bonito — kernel
// synchronization, memcpy API calls, and the compute kernels themselves) and
// once in stall-analysis mode (finding ~70% memory-dependency and ~20%
// execution-dependency stalls for Racon). Profile reproduces both views from
// the event stream the gpu package emits.
package nvprof

import (
	"sort"
	"sync"
	"time"
)

// APICall is one recorded host-side CUDA API invocation.
type APICall struct {
	Name  string
	Start time.Duration
	Dur   time.Duration
}

// KernelExec is one recorded device-side kernel execution.
type KernelExec struct {
	Name        string
	Device      int
	Start       time.Duration
	Dur         time.Duration
	MemFraction float64 // fraction of limiting cost that is memory traffic
}

// Profile accumulates API and kernel events. It implements gpu.Profiler and
// gpu.KernelDetailRecorder and is safe for concurrent use.
type Profile struct {
	mu      sync.Mutex
	apis    []APICall
	kernels []KernelExec
}

// New returns an empty profile.
func New() *Profile { return &Profile{} }

// RecordAPI implements gpu.Profiler.
func (p *Profile) RecordAPI(name string, start, dur time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.apis = append(p.apis, APICall{Name: name, Start: start, Dur: dur})
}

// RecordKernel implements gpu.Profiler. Kernel detail (memory fraction)
// arrives through RecordKernelDetail; plain RecordKernel events are kept so
// the profile works with any Profiler producer.
func (p *Profile) RecordKernel(name string, device int, start, dur time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.kernels = append(p.kernels, KernelExec{Name: name, Device: device, Start: start, Dur: dur, MemFraction: -1})
}

// RecordKernelDetail implements gpu.KernelDetailRecorder. It upgrades the
// most recent matching RecordKernel event with its memory fraction.
func (p *Profile) RecordKernelDetail(name string, device int, start, dur time.Duration, memFraction float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.kernels) - 1; i >= 0; i-- {
		k := &p.kernels[i]
		if k.Name == name && k.Device == device && k.Start == start {
			k.MemFraction = memFraction
			return
		}
	}
	p.kernels = append(p.kernels, KernelExec{Name: name, Device: device, Start: start, Dur: dur, MemFraction: memFraction})
}

// Hotspot is one row of a hotspot breakdown.
type Hotspot struct {
	// Name of the API call or kernel.
	Name string
	// Kind is "api" or "kernel".
	Kind string
	// Calls is the invocation count.
	Calls int
	// Total is the accumulated time.
	Total time.Duration
	// Percent of the breakdown's total time.
	Percent float64
}

func hotspots(byName map[string]*Hotspot) []Hotspot {
	var total time.Duration
	out := make([]Hotspot, 0, len(byName))
	for _, h := range byName {
		total += h.Total
		out = append(out, *h)
	}
	for i := range out {
		if total > 0 {
			out[i].Percent = 100 * float64(out[i].Total) / float64(total)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// APIHotspots aggregates host-side API time by call name, largest first.
func (p *Profile) APIHotspots() []Hotspot {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := map[string]*Hotspot{}
	for _, a := range p.apis {
		h := m[a.Name]
		if h == nil {
			h = &Hotspot{Name: a.Name, Kind: "api"}
			m[a.Name] = h
		}
		h.Calls++
		h.Total += a.Dur
	}
	return hotspots(m)
}

// KernelHotspots aggregates device-side kernel time by name, largest first.
func (p *Profile) KernelHotspots() []Hotspot {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := map[string]*Hotspot{}
	for _, k := range p.kernels {
		h := m[k.Name]
		if h == nil {
			h = &Hotspot{Name: k.Name, Kind: "kernel"}
			m[k.Name] = h
		}
		h.Calls++
		h.Total += k.Dur
	}
	return hotspots(m)
}

// Hotspots merges API and kernel aggregations into one ranking — the view
// plotted in Figs. 4 and 6, where cudaStreamSynchronize, cudaMemcpy and the
// ClaraGenomics kernels appear side by side.
func (p *Profile) Hotspots() []Hotspot {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := map[string]*Hotspot{}
	for _, a := range p.apis {
		h := m[a.Name]
		if h == nil {
			h = &Hotspot{Name: a.Name, Kind: "api"}
			m[a.Name] = h
		}
		h.Calls++
		h.Total += a.Dur
	}
	for _, k := range p.kernels {
		h := m[k.Name]
		if h == nil {
			h = &Hotspot{Name: k.Name, Kind: "kernel"}
			m[k.Name] = h
		}
		h.Calls++
		h.Total += k.Dur
	}
	return hotspots(m)
}
