package gpu

import (
	"fmt"
	"sync"

	"gyan/internal/sim"
)

// Cluster is a set of GPU devices attached to one host, sharing a virtual
// clock. It is the simulated equivalent of the paper's Chameleon Cloud node
// (Xeon E5-2670 host, two visible Tesla K80 devices).
type Cluster struct {
	host    HostSpec
	devices []*Device
	clock   *sim.Clock

	mu      sync.Mutex
	nextPID int
}

// NewCluster builds a cluster of n identical devices with minor IDs 0..n-1.
// n may be zero: a GPU-less host, over which nvidia-smi reports no devices
// and GYAN falls back to CPU destinations. If clock is nil a fresh one is
// created.
func NewCluster(spec DeviceSpec, n int, clock *sim.Clock) *Cluster {
	if n < 0 {
		panic(fmt.Sprintf("gpu: cluster with %d devices", n))
	}
	if clock == nil {
		clock = sim.NewClock()
	}
	c := &Cluster{
		host:  XeonHost(),
		clock: clock,
		// Seed so the first NextPID matches the first PID visible in the
		// paper's Fig. 11 console output (39953); purely cosmetic.
		nextPID: 39953 - pidStep,
	}
	for i := 0; i < n; i++ {
		c.devices = append(c.devices, newDevice(spec, i, clock))
	}
	return c
}

// NewPaperTestbed returns the evaluation machine of the paper: two visible
// Tesla K80 (GK210) devices, minor IDs 0 and 1, on a 48-CPU Xeon host.
func NewPaperTestbed(clock *sim.Clock) *Cluster {
	return NewCluster(TeslaGK210(), 2, clock)
}

// pidStep spaces consecutive simulated PIDs apart, echoing how real PIDs in
// the paper's console outputs are hundreds apart.
const pidStep = 581

// NextPID allocates a fresh simulated host process ID.
func (c *Cluster) NextPID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextPID += pidStep
	return c.nextPID
}

// Clock returns the cluster's virtual clock.
func (c *Cluster) Clock() *sim.Clock { return c.clock }

// Host returns the host CPU description.
func (c *Cluster) Host() HostSpec { return c.host }

// DeviceCount returns the number of devices in the cluster.
func (c *Cluster) DeviceCount() int { return len(c.devices) }

// Device returns the device with the given minor ID.
func (c *Cluster) Device(minor int) (*Device, error) {
	if minor < 0 || minor >= len(c.devices) {
		return nil, fmt.Errorf("gpu: no device with minor id %d (cluster has %d)", minor, len(c.devices))
	}
	return c.devices[minor], nil
}

// Devices returns all devices ordered by minor ID. The returned slice must
// not be modified.
func (c *Cluster) Devices() []*Device { return c.devices }

// AvailableMinors returns the minor IDs of devices with no resident compute
// process, in ascending order — the definition of "available" used by the
// paper's get_gpu_usage (Pseudocode 1: a GPU is available when its process
// list is empty).
func (c *Cluster) AvailableMinors() []int {
	var out []int
	for _, d := range c.devices {
		if d.ProcessCount() == 0 {
			out = append(out, d.minor)
		}
	}
	return out
}
