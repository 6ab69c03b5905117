package smi

import (
	"slices"
	"time"

	"gyan/internal/gpu"
)

// Cache deduplicates survey round trips. Every survey takes a Snapshot of
// the cluster — what the device layer would report right now — and pays the
// rest of the nvidia-smi pipeline (render the `-q -x` XML report, parse it
// back, fold it into a Usage) only when that snapshot differs from the one
// behind the cached Usage in some field other than its timestamp. The fold
// never reads the timestamp, so a hit serves exactly the Usage the round trip
// would have produced; and because the key is the device report itself, any
// device-state mutation — a session opened, closed or aborted, a kernel
// ending inside the utilization window — reaches the next survey without its
// author having to announce it.
//
// A Cache is not safe for concurrent use: the engine keeps one and calls it
// only under its own lock.
type Cache struct {
	valid bool
	rep   Report // the snapshot usage was parsed from
	usage Usage

	hits, misses int

	// observeMiss, when set, receives the wall-clock cost of each miss's
	// round trip.
	observeMiss func(time.Duration)
}

// NewCache builds a survey cache. observeMiss, if not nil, is told how long
// each miss's render+parse round trip took on the wall clock; it runs on the
// surveying goroutine.
func NewCache(observeMiss func(time.Duration)) *Cache {
	return &Cache{observeMiss: observeMiss}
}

// Usage returns the cluster's usage survey at now: the cached parse when the
// device report at now matches the one it came from, otherwise the
// RenderXML+UsageFromXML round trip of that report, which is what Query and
// UsageFromXML compute. A miss that errors is not cached.
func (c *Cache) Usage(cluster *gpu.Cluster, now time.Duration) (Usage, error) {
	began := time.Now()
	rep := Snapshot(cluster, now)
	if c.valid && sameDevices(rep, c.rep) {
		c.hits++
		return c.usage, nil
	}
	doc, err := RenderXML(rep)
	if err != nil {
		return Usage{}, err
	}
	u, err := UsageFromXML(doc)
	if err != nil {
		return Usage{}, err
	}
	c.misses++
	c.rep, c.usage, c.valid = rep, u, true
	if c.observeMiss != nil {
		c.observeMiss(time.Since(began))
	}
	return u, nil
}

// sameDevices reports whether two reports agree in every field but
// Timestamp.
func sameDevices(a, b Report) bool {
	return a.DriverVersion == b.DriverVersion && a.CUDAVersion == b.CUDAVersion &&
		slices.EqualFunc(a.GPUs, b.GPUs, sameGPU)
}

// sameGPU compares every field of two device sections, the process tables
// element by element.
func sameGPU(x, y GPUInfo) bool {
	return x.MinorNumber == y.MinorNumber &&
		x.ProductName == y.ProductName &&
		x.UUID == y.UUID &&
		x.BusID == y.BusID &&
		x.FanPercent == y.FanPercent &&
		x.TemperatureC == y.TemperatureC &&
		x.PerfState == y.PerfState &&
		x.PowerDrawW == y.PowerDrawW &&
		x.PowerLimitW == y.PowerLimitW &&
		x.MemoryTotalMiB == y.MemoryTotalMiB &&
		x.MemoryUsedMiB == y.MemoryUsedMiB &&
		x.UtilizationPct == y.UtilizationPct &&
		x.PCIeGen == y.PCIeGen &&
		slices.Equal(x.Processes, y.Processes)
}

// Stats returns the cache's hit and miss counts.
func (c *Cache) Stats() (hits, misses int) {
	return c.hits, c.misses
}
