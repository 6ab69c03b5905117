package gpu

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gyan/internal/sim"
)

// Process describes one compute process resident on a device, as nvidia-smi
// would list it in its Processes table.
type Process struct {
	// PID is the host process ID.
	PID int
	// Name is the executable path (e.g. "/usr/bin/racon_gpu").
	Name string
	// MemoryBytes is the framebuffer memory currently allocated by the
	// process on this device.
	MemoryBytes int64
	// Type is "C" (compute) or "G" (graphics); all simulated tools are
	// compute processes.
	Type string
}

// MemoryMiB returns the process's device memory in MiB as nvidia-smi prints
// it.
func (p Process) MemoryMiB() int64 { return p.MemoryBytes / (1 << 20) }

// busyInterval records one span of virtual time during which the device was
// executing at least one kernel, together with the fraction of SMs occupied
// and the owning process (so aborts can retract queued work).
type busyInterval struct {
	start, end time.Duration
	occupancy  float64
	pid        int
}

// Device is one simulated GPU. All methods are safe for concurrent use.
type Device struct {
	spec  DeviceSpec
	minor int
	uuid  string
	busID string
	clock *sim.Clock

	mu        sync.Mutex
	procs     map[int]*Process // keyed by PID
	usedBytes int64
	busy      []busyInterval
	// kernelEnd tracks, per process, when its most recently issued work
	// finishes; new kernels from the same process queue behind it, and
	// overlap with other processes' entries models SM contention.
	kernelEnd map[int]time.Duration
}

func newDevice(spec DeviceSpec, minor int, clock *sim.Clock) *Device {
	return &Device{
		spec:      spec,
		minor:     minor,
		uuid:      fmt.Sprintf("GPU-%08x-sim-%04d", 0xf00d0000+minor, minor),
		busID:     fmt.Sprintf("00000000:%02X:00.0", 5+minor),
		clock:     clock,
		procs:     make(map[int]*Process),
		kernelEnd: make(map[int]time.Duration),
	}
}

// Spec returns the device's hardware description.
func (d *Device) Spec() DeviceSpec { return d.spec }

// Minor returns the device's minor number (the ID CUDA_VISIBLE_DEVICES and
// nvidia-smi use).
func (d *Device) Minor() int { return d.minor }

// UUID returns the device's unique identifier string.
func (d *Device) UUID() string { return d.uuid }

// BusID returns the PCI bus ID string nvidia-smi reports.
func (d *Device) BusID() string { return d.busID }

// UsedMemoryBytes returns the total framebuffer memory currently allocated on
// the device, plus the driver's fixed reservation.
func (d *Device) UsedMemoryBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.usedBytes + driverReservedBytes
}

// driverReservedBytes is the framebuffer the driver holds even on an idle
// device; Fig. 10 shows 63 MiB used on the idle GPU 0.
const driverReservedBytes int64 = 63 << 20

// Processes returns a snapshot of the compute processes resident on the
// device, ordered by PID, mirroring the nvidia-smi Processes table.
func (d *Device) Processes() []Process {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Process, 0, len(d.procs))
	for _, p := range d.procs {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// ProcessCount returns the number of compute processes on the device.
func (d *Device) ProcessCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.procs)
}

// Attach registers a process on the device (the moment a CUDA context is
// created). Attaching an already-attached PID is a no-op.
func (d *Device) Attach(pid int, name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.procs[pid]; !ok {
		d.procs[pid] = &Process{PID: pid, Name: name, Type: "C"}
	}
}

// Detach removes a process and releases all memory it still holds on the
// device. Detaching an unknown PID is a no-op.
func (d *Device) Detach(pid int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.procs[pid]; ok {
		d.usedBytes -= p.MemoryBytes
		delete(d.procs, pid)
		delete(d.kernelEnd, pid)
	}
}

// ErrOutOfMemory is returned when an allocation exceeds the device's free
// framebuffer.
type ErrOutOfMemory struct {
	Device    int
	Requested int64
	Free      int64
}

func (e *ErrOutOfMemory) Error() string {
	return fmt.Sprintf("gpu: device %d out of memory: requested %d bytes, %d free",
		e.Device, e.Requested, e.Free)
}

// Alloc reserves bytes of framebuffer for pid. The process must be attached
// first. Alloc is pure accounting: allocation latency is charged to the
// calling Stream's timeline, not here.
func (d *Device) Alloc(pid int, bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("gpu: negative allocation of %d bytes", bytes)
	}
	d.mu.Lock()
	p, ok := d.procs[pid]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("gpu: Alloc by unattached pid %d on device %d", pid, d.minor)
	}
	free := d.spec.MemoryBytes - d.usedBytes - driverReservedBytes
	if bytes > free {
		d.mu.Unlock()
		return &ErrOutOfMemory{Device: d.minor, Requested: bytes, Free: free}
	}
	p.MemoryBytes += bytes
	d.usedBytes += bytes
	d.mu.Unlock()
	return nil
}

// UtilizationOver reports the device's SM utilization percentage over the
// virtual-time window [from, to), defined as the occupancy-weighted fraction
// of the window during which at least one kernel was resident. This is what
// the nvidia-smi "GPU-Util" column and the monitor script sample.
func (d *Device) UtilizationOver(from, to time.Duration) float64 {
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

// BusySpan is one interval of kernel residency on a device.
type BusySpan struct {
	Start, End time.Duration
	// Occupancy is the SM fill fraction during the span.
	Occupancy float64
}

// BusySpans returns a snapshot of the device's kernel-residency intervals in
// chronological order, for timeline rendering.
func (d *Device) BusySpans() []BusySpan {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]BusySpan, len(d.busy))
	for i, iv := range d.busy {
		out[i] = BusySpan{Start: iv.start, End: iv.end, Occupancy: iv.occupancy}
	}
	return out
}

// EnergyOver returns the electrical energy in joules the device consumed
// over the virtual window [from, to): idle power for the whole span plus
// the dynamic range scaled by occupancy-weighted utilization.
func (d *Device) EnergyOver(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	span := (to - from).Seconds()
	util := d.UtilizationOver(from, to) / 100
	idle := float64(d.spec.IdlePowerWatts)
	dynamic := float64(d.spec.PowerLimitWatts - d.spec.IdlePowerWatts)
	return (idle + dynamic*util) * span
}

// recordBusy appends a busy interval; caller must hold d.mu.
func (d *Device) recordBusy(pid int, start, end time.Duration, occupancy float64) {
	// Coalesce with the previous interval when contiguous at the same
	// occupancy, to keep long kernel streams compact.
	if n := len(d.busy); n > 0 {
		last := &d.busy[n-1]
		if last.end == start && last.occupancy == occupancy && last.pid == pid {
			last.end = end
			return
		}
	}
	d.busy = append(d.busy, busyInterval{start: start, end: end, occupancy: occupancy, pid: pid})
}

// AbortProcess tears a process down at virtual time `at`: kernels queued or
// running beyond that instant are retracted from the busy timeline (a killed
// job stops consuming SMs), and the process detaches, releasing its memory.
// Used by the framework's job-kill path.
func (d *Device) AbortProcess(pid int, at time.Duration) {
	d.mu.Lock()
	kept := d.busy[:0]
	for _, iv := range d.busy {
		if iv.pid == pid {
			if iv.start >= at {
				continue // entirely in the retracted future
			}
			if iv.end > at {
				iv.end = at
			}
		}
		kept = append(kept, iv)
	}
	d.busy = kept
	d.mu.Unlock()
	d.Detach(pid)
}
