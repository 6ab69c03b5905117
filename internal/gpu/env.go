package gpu

import "time"

// Env is the placement a tool run executes in, the one shape every tool's
// Run takes. A nil Cluster (or empty Devices) selects the CPU-only path.
type Env struct {
	// Cluster is the GPU cluster; nil for CPU-only execution.
	Cluster *Cluster
	// Devices are the minor IDs the run may use (the allocator's
	// CUDA_VISIBLE_DEVICES decision).
	Devices []int
	// PID is the simulated host process ID.
	PID int
	// ProcName is the executable name nvidia-smi shows.
	ProcName string
	// Profiler, if non-nil, receives all CUDA events (NVProf attach).
	Profiler Profiler
	// Start is the run's origin on the virtual timeline.
	Start time.Duration
	// KeepOpen leaves the device streams attached after Run returns, for
	// the caller to close from the result's Sessions at job completion: it
	// keeps the job's processes in nvidia-smi, as in the paper's Figs. 10-11.
	KeepOpen bool
}

// Placement is the Env of a run of procName on devices under the next host
// PID of c.
func (c *Cluster) Placement(procName string, devices ...int) Env {
	return Env{Cluster: c, Devices: devices, PID: c.NextPID(), ProcName: procName}
}

// ContextBytes is the device memory a CUDA context pins at creation: the
// 60 MiB per process the paper's Fig. 11 shows.
const ContextBytes = 60 << 20

// Open attaches the run's process to each of its devices at start, one
// stream per device holding a CUDA context, and returns the streams with
// the devices' spec. If a device is missing or full, it closes the streams
// it opened.
func (e Env) Open(start time.Duration) (DeviceSpec, []*Stream, error) {
	var spec DeviceSpec
	streams := make([]*Stream, 0, len(e.Devices))
	for _, minor := range e.Devices {
		d, err := e.Cluster.Device(minor)
		if err == nil {
			spec = d.Spec()
			streams = append(streams, d.NewStream(e.PID, e.ProcName, start, e.Profiler))
			err = streams[len(streams)-1].Malloc(ContextBytes)
		}
		if err != nil {
			for _, s := range streams {
				s.Close()
			}
			return spec, nil, err
		}
	}
	return spec, streams, nil
}

// Release ends a run's streams given the run's error: with KeepOpen and no
// error it returns them for the result's Sessions, else it closes them and
// returns nil, since a failed run hands its caller no result to close them
// from.
func (e Env) Release(streams []*Stream, err error) []*Stream {
	if e.KeepOpen && err == nil {
		return streams
	}
	for _, s := range streams {
		s.Close()
	}
	return nil
}
