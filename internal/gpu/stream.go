package gpu

import (
	"fmt"
	"time"
)

// Profiler receives a record of every simulated CUDA API call and kernel
// execution. The nvprof package implements it; a nil Profiler disables
// profiling at zero cost.
type Profiler interface {
	// RecordAPI records a host-side CUDA API call (launch, memcpy,
	// synchronize, malloc) with its start time and duration on the
	// process's timeline.
	RecordAPI(name string, start, dur time.Duration)
	// RecordKernel records a device-side kernel execution.
	RecordKernel(name string, device int, start, dur time.Duration)
}

// KernelDetailRecorder is an optional extension of Profiler. A profiler that
// implements it additionally receives each kernel's memory-boundedness,
// which feeds stall-reason attribution (the paper's NVProf stall analysis).
type KernelDetailRecorder interface {
	RecordKernelDetail(name string, device int, start, dur time.Duration, memFraction float64)
}

// Stream is a per-process execution timeline on one device: the simulated
// equivalent of a CUDA stream plus its host thread. Operations advance the
// stream's own position in absolute virtual time, so two processes running
// on different devices overlap in time instead of serializing — exactly the
// property the paper's Case 1 demonstrates ("two different tools can be
// executed in parallel in separate GPUs without performance degradation").
//
// Kernel launches are asynchronous, as in CUDA: Launch charges only the
// launch overhead to the host timeline and queues the kernel on the device;
// Synchronize blocks the host timeline until queued work completes. This
// split is what lets the nvprof substrate reproduce the paper's Fig. 4/6
// hotspot shape, where synchronization and memcpy API time dominate kernel
// time.
//
// Stream is not safe for concurrent use; each simulated process drives its
// own stream.
type Stream struct {
	dev  *Device
	pid  int
	t    time.Duration // host-timeline position (absolute virtual time)
	done time.Duration // device-side completion time of queued kernels
	prof Profiler

	// memcpyLatency is the fixed per-transfer setup cost.
	memcpyLatency time.Duration
}

// NewStream attaches pid to the device (creating the CUDA context if needed)
// and returns a stream whose timeline starts at the given absolute virtual
// time. prof may be nil.
func (d *Device) NewStream(pid int, procName string, start time.Duration, prof Profiler) *Stream {
	d.Attach(pid, procName)
	return &Stream{
		dev:           d,
		pid:           pid,
		t:             start,
		done:          start,
		prof:          prof,
		memcpyLatency: 10 * time.Microsecond,
	}
}

// Device returns the device the stream executes on.
func (s *Stream) Device() *Device { return s.dev }

// Now returns the stream's current position in absolute virtual time.
func (s *Stream) Now() time.Duration { return s.t }

// advance moves the host timeline forward and reports the API interval.
func (s *Stream) advance(api string, d time.Duration) {
	if s.prof != nil {
		s.prof.RecordAPI(api, s.t, d)
	}
	s.t += d
}

// Malloc allocates device memory for the owning process, charging the
// allocation latency. Large allocations pay a size-proportional zeroing cost
// on top of the fixed overhead, which is what makes Racon's initial pool
// allocation cost ~2 s in the paper's breakdown.
func (s *Stream) Malloc(bytes int64) error {
	if err := s.dev.Alloc(s.pid, bytes); err != nil {
		return err
	}
	// Fixed driver overhead plus pool creation at the (slow) allocation
	// bandwidth.
	d := s.dev.spec.AllocOverhead +
		time.Duration(float64(bytes)/s.dev.spec.AllocBandwidth*float64(time.Second))
	s.advance("cudaMalloc", d)
	return nil
}

// HostOverhead charges a modeled host-side driver cost (dispatch stalls,
// synchronization residue, context setup) to the stream's timeline under the
// given API name. Tool cost models use it for overheads that are not tied to
// a specific transfer or kernel.
func (s *Stream) HostOverhead(api string, d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("gpu: HostOverhead with negative duration %v", d))
	}
	s.advance(api, d)
}

// CopyH2D models a host-to-device transfer over PCIe. The copy is
// synchronous: the host timeline advances by the full transfer time.
func (s *Stream) CopyH2D(bytes int64) {
	s.copy("cudaMemcpyHtoD", bytes)
}

// CopyD2H models a device-to-host transfer over PCIe.
func (s *Stream) CopyD2H(bytes int64) {
	s.copy("cudaMemcpyDtoH", bytes)
}

func (s *Stream) copy(api string, bytes int64) {
	if bytes < 0 {
		panic(fmt.Sprintf("gpu: %s with negative byte count %d", api, bytes))
	}
	// A synchronous memcpy waits for queued kernels first (CUDA default
	// stream semantics).
	s.waitDevice("cudaMemcpy-sync")
	d := s.memcpyLatency +
		time.Duration(float64(bytes)/s.dev.spec.PCIeBandwidth*float64(time.Second))
	s.advance(api, d)
}

// Launch queues a kernel on the device. Only the launch overhead is charged
// to the host timeline; the kernel body executes on the device timeline and
// completes at the time Synchronize will observe.
//
// If other processes have kernels in flight on the same device at the
// launch instant, the kernel body is slowed proportionally to the number of
// co-resident active processes — a deliberately simple timesharing model of
// the SM contention the paper's Case 4 discussion warns about ("some GPUs
// can have very high memory utilization ... stalling due to context
// switching between tasks").
func (s *Stream) Launch(k Kernel) error {
	if err := k.Validate(s.dev.spec); err != nil {
		return err
	}
	s.advance("cudaLaunchKernel", s.dev.spec.KernelLaunchOverhead)

	d := s.dev
	d.mu.Lock()
	start := s.t
	if s.done > start {
		start = s.done // queue behind our own earlier kernels
	}
	if end := d.kernelEnd[s.pid]; end > start {
		// Default-stream semantics: all streams of one process share
		// the device-side queue, so work issued from another Stream of
		// the same PID serializes here too.
		start = end
	}
	contenders := 1
	for pid, end := range d.kernelEnd {
		if pid != s.pid && end > start {
			contenders++
		}
	}
	body := k.Duration(d.spec) * time.Duration(contenders)
	end := start + body
	s.done = end
	d.kernelEnd[s.pid] = end
	d.recordBusy(s.pid, start, end, k.Occupancy(d.spec))
	d.mu.Unlock()

	if s.prof != nil {
		s.prof.RecordKernel(k.Name, d.minor, start, body)
		if kd, ok := s.prof.(KernelDetailRecorder); ok {
			kd.RecordKernelDetail(k.Name, d.minor, start, body, k.MemFraction(d.spec))
		}
	}
	return nil
}

// Synchronize blocks the host timeline until all queued kernels complete,
// recording the wait as a cudaStreamSynchronize API call.
func (s *Stream) Synchronize() {
	s.waitDevice("cudaStreamSynchronize")
}

func (s *Stream) waitDevice(api string) {
	if s.done > s.t {
		s.advance(api, s.done-s.t)
	}
}

// Close synchronizes outstanding work and detaches the process from the
// device, releasing any memory it still holds.
func (s *Stream) Close() {
	s.Synchronize()
	s.dev.Detach(s.pid)
}

// Abort kills the process at virtual time `at`: queued and future kernel
// work is retracted from the device timeline and the process detaches
// immediately, without waiting for completion.
func (s *Stream) Abort(at time.Duration) {
	s.dev.AbortProcess(s.pid, at)
	if at > s.t {
		s.t = at
	}
	s.done = s.t
}
