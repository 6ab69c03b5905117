package racon

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gyan/internal/bioseq"
	"gyan/internal/gpu"
	"gyan/internal/workload"
)

// Params configures one Racon run. The zero value is not valid; start from
// DefaultParams.
type Params struct {
	// Threads is the host thread count (the racon -t flag swept in
	// Fig. 3).
	Threads int
	// Batches is the cudapoa batch count (GPU runs; swept in Figs. 3/7).
	Batches int
	// Banding enables the banded "banding approximation" kernels, with a
	// DP band half-width of BandWidth.
	Banding bool
	// WindowLen is the polishing window length in bases.
	WindowLen int
	// Scale is the fraction of the dataset's NominalBytes the cost model
	// simulates; 1.0 reproduces the paper's full-dataset runs.
	Scale float64
	// Containerized applies the Docker execution model (thread quota,
	// per-batch device multiplexing cost, cold start).
	Containerized bool
}

// BandWidth is the DP band half-width of a banded run.
const BandWidth = 50

// DefaultParams returns the paper's best bare-metal GPU configuration:
// 4 threads, 1 batch, no banding.
func DefaultParams() Params {
	return Params{
		Threads:   4,
		Batches:   1,
		Banding:   false,
		WindowLen: 500,
		Scale:     1.0,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	switch {
	case p.Threads < 1:
		return fmt.Errorf("racon: %d threads", p.Threads)
	case p.Batches < 1:
		return fmt.Errorf("racon: %d batches", p.Batches)
	case p.WindowLen < 2*minSegmentLen:
		return fmt.Errorf("racon: window length %d too small", p.WindowLen)
	case p.Scale <= 0 || p.Scale > 1:
		return fmt.Errorf("racon: scale %v outside (0, 1]", p.Scale)
	}
	return nil
}

// Env is the execution environment a run is placed in. A nil Cluster (or
// empty Devices) selects the CPU-only path.
type Env struct {
	// Cluster is the GPU cluster; nil for CPU-only execution.
	Cluster *gpu.Cluster
	// Devices are the minor IDs the run may use (the allocator's
	// CUDA_VISIBLE_DEVICES decision). Work is spread across all of them.
	Devices []int
	// PID is the simulated host process ID.
	PID int
	// ProcName is the executable name shown by nvidia-smi.
	ProcName string
	// Profiler, if non-nil, receives all CUDA events (NVProf attach).
	Profiler gpu.Profiler
	// Start is the run's origin on the virtual timeline.
	Start time.Duration
	// KeepOpen leaves the device streams attached after Run returns; the
	// caller (the Galaxy runner) owns them via Result.Sessions and must
	// close them when the job completes. This is what keeps processes
	// visible to nvidia-smi for the duration of the job, as in the
	// paper's Figs. 10 and 11.
	KeepOpen bool
}

// StageTiming is the virtual-time breakdown of one run.
type StageTiming struct {
	// IO is dataset streaming from storage.
	IO time.Duration
	// HostPrep is host-side feature packing before device upload (GPU
	// runs only).
	HostPrep time.Duration
	// Overlap is read-to-backbone alignment (CPU minimap-style, or
	// cudaaligner kernels on GPU).
	Overlap time.Duration
	// Alloc is device pool creation (the paper's ~2 s).
	Alloc time.Duration
	// Transfer is PCIe traffic during polishing.
	Transfer time.Duration
	// Kernels is device kernel execution during polishing.
	Kernels time.Duration
	// Sync is synchronization/dispatch residue (CUDA API overhead).
	Sync time.Duration
	// CPUPolish is the host POA time (CPU-only runs).
	CPUPolish time.Duration
	// Stitch is consensus window stitching on the host.
	Stitch time.Duration
	// ContainerLaunch is container pull/cold-start time, when
	// containerized.
	ContainerLaunch time.Duration
}

// Polish returns the polishing-stage time — the quantity plotted in
// Figs. 3 and 7.
func (t StageTiming) Polish() time.Duration {
	return t.Alloc + t.Transfer + t.Kernels + t.Sync + t.CPUPolish + t.Stitch
}

// Total returns the end-to-end virtual time of the run.
func (t StageTiming) Total() time.Duration {
	return t.IO + t.HostPrep + t.Overlap + t.Polish() + t.ContainerLaunch
}

// Result is the outcome of one Racon run.
type Result struct {
	// Consensus is the polished assembly.
	Consensus bioseq.Seq
	// Timing is the virtual-time breakdown.
	Timing StageTiming
	// DraftIdentity and PolishedIdentity measure the draft and the
	// consensus against the ground-truth reference.
	DraftIdentity, PolishedIdentity float64
	// Windows is the number of polishing windows; MappedReads the number
	// of reads placed on the backbone; DPCells the real DP work done.
	Windows, MappedReads int
	DPCells              int64
	// WindowStats carries the per-window quality report (oracle
	// identities vs the ground-truth reference).
	WindowStats []WindowQuality
	// GPUUsed reports whether the run executed on GPU devices.
	GPUUsed bool
	// Devices are the minor IDs used (GPU runs).
	Devices []int
	// Sessions are the still-open device streams when Env.KeepOpen was
	// set; nil otherwise. The caller must Close them.
	Sessions []*gpu.Stream
}

// Run executes Racon over the read set: map reads to the draft backbone,
// polish each window with POA, and stitch the consensus. The computation is
// real (CPU and GPU paths produce the same consensus); stage timings come
// from the calibrated cost model and, for GPU runs, from the device
// simulator's streams.
func Run(rs *workload.ReadSet, p Params, env Env) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if rs == nil || len(rs.Reads) == 0 {
		return nil, fmt.Errorf("racon: empty read set")
	}
	useGPU := env.Cluster != nil && len(env.Devices) > 0

	// --- Real computation -------------------------------------------------
	mappings, mapStats, err := MapReads(rs.Backbone, rs.Reads, DefaultK)
	if err != nil {
		return nil, err
	}
	windows, err := BuildWindows(rs.Backbone, rs.Reads, mappings, p.WindowLen)
	if err != nil {
		return nil, err
	}
	band := 0
	if p.Banding {
		band = BandWidth
	}
	pieces, dpCells, err := polishAll(windows, p.Threads, band)
	if err != nil {
		return nil, err
	}
	var consensus []byte
	for _, piece := range pieces {
		consensus = append(consensus, piece...)
	}
	windowStats, err := windowQualities(rs.Reference, rs.Backbone, windows, pieces)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Consensus:        bioseq.Seq{ID: rs.Backbone.ID + "_polished", Bases: consensus},
		DraftIdentity:    bioseq.Identity(rs.Backbone.Bases, rs.Reference.Bases),
		PolishedIdentity: bioseq.Identity(consensus, rs.Reference.Bases),
		Windows:          len(windows),
		WindowStats:      windowStats,
		MappedReads:      len(rs.Reads) - mapStats.Unmapped,
		DPCells:          dpCells,
		GPUUsed:          useGPU,
	}

	// --- Cost model --------------------------------------------------------
	scaled := float64(rs.NominalBytes) * p.Scale
	host := gpu.XeonHost()
	if env.Cluster != nil {
		host = env.Cluster.Host()
	}
	res.Timing.IO = time.Duration(scaled / ioBandwidth * float64(time.Second))
	res.Timing.Stitch = cpuStageTime(stitchOpsPerByte*scaled, p.Threads, host, p.Containerized)
	if p.Containerized {
		res.Timing.ContainerLaunch = time.Duration(containerColdStartSeconds * float64(time.Second))
	}

	if !useGPU {
		res.Timing.Overlap = cpuStageTime(cpuOverlapOpsPerByte*scaled, p.Threads, host, p.Containerized)
		polishOps := cpuPolishOpsPerByte * scaled
		if p.Banding {
			polishOps *= bandingWorkFactor
		}
		res.Timing.CPUPolish = cpuStageTime(polishOps, p.Threads, host, p.Containerized)
		return res, nil
	}

	res.Devices = append([]int(nil), env.Devices...)
	res.Timing.HostPrep = cpuStageTime(hostPrepOpsPerByte*scaled, p.Threads, host, p.Containerized)
	if err := runGPUStages(res, scaled, p, env); err != nil {
		return nil, err
	}
	return res, nil
}

// polishAll runs the real POA over all windows and returns the per-window
// consensus pieces in window order. Up to `threads` workers, never more than
// there are windows, each take the next unpolished window until none is
// left; a single worker is the calling goroutine itself.
func polishAll(windows []Window, threads, band int) ([][]byte, int64, error) {
	pieces := make([][]byte, len(windows))
	stats := make([]DPStats, len(windows))
	errs := make([]error, len(windows))
	var next atomic.Int64
	worker := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(windows) {
				return
			}
			pieces[i], stats[i], errs[i] = PolishWindow(windows[i], bioseq.DefaultScores(), band)
		}
	}
	if workers := min(threads, len(windows)); workers > 1 {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	} else {
		worker()
	}

	var cells int64
	for i := range windows {
		if errs[i] != nil {
			return nil, 0, errs[i]
		}
		cells += int64(stats[i].Cells)
	}
	return pieces, cells, nil
}

// runGPUStages drives the simulated device: cudaaligner overlap kernels,
// pool allocation, then chunked copy + generatePOAKernel +
// generateConsensusKernel + synchronize, spreading chunks across all
// assigned devices. Stage durations are read back from the slowest stream.
// Device work begins after the host-side stages already accounted in
// res.Timing, so busy intervals land at the correct absolute virtual times.
func runGPUStages(res *Result, scaled float64, p Params, env Env) error {
	deviceStart := env.Start + res.Timing.IO + res.Timing.HostPrep + res.Timing.ContainerLaunch
	spec, streams, err := openStreams(env, deviceStart)
	if err != nil {
		return err
	}
	defer func() {
		if env.KeepOpen {
			res.Sessions = streams
			return
		}
		for _, s := range streams {
			s.Close()
		}
	}()

	chunks := int(scaled/chunkBytes) + 1
	perChunk := scaled / float64(chunks)
	nd := len(streams)

	type buckets struct{ overlap, alloc, transfer, kernels, sync time.Duration }
	bk := make([]buckets, nd)
	mark := make([]time.Duration, nd)
	for i, s := range streams {
		mark[i] = s.Now()
	}
	lap := func(i int, s *gpu.Stream, dst *time.Duration) {
		*dst += s.Now() - mark[i]
		mark[i] = s.Now()
	}

	// Overlap stage: cudaaligner exact DP over the read set.
	for c := 0; c < chunks; c++ {
		i := c % nd
		s := streams[i]
		s.CopyH2D(int64(perChunk))
		k := gpu.Kernel{
			Name:            "alignmentKernel",
			Ops:             alignKernelOpsPerByte * perChunk,
			BytesRead:       int64(alignKernelBytesPerByte * perChunk),
			Blocks:          4 * spec.SMs,
			ThreadsPerBlock: 256,
		}
		if err := s.Launch(k); err != nil {
			return err
		}
		s.Synchronize()
		s.HostOverhead("cudaStreamSynchronize", alignSyncPerChunk)
		lap(i, s, &bk[i].overlap)
	}

	// Polishing stage: pool allocation, then chunked POA + consensus.
	pool := int64(poolBytesPerScaledByte * scaled)
	if p.Banding {
		pool = int64(float64(pool) * bandingPoolFactor)
	}
	if pool > poolCapBytes {
		pool = poolCapBytes
	}
	for i, s := range streams {
		if err := s.Malloc(pool); err != nil {
			return fmt.Errorf("racon: pool allocation on device %d: %w", s.Device().Minor(), err)
		}
		lap(i, s, &bk[i].alloc)
	}

	opsPerByte, bytesPerByte := poaKernelOpsPerByte, poaKernelBytesPerByte
	if p.Banding {
		opsPerByte *= bandingWorkFactor
		bytesPerByte *= bandingBytesFactor
	}
	blocks := poaBlocks(spec, p.Batches, p.Banding)
	for c := 0; c < chunks; c++ {
		i := c % nd
		s := streams[i]
		s.CopyH2D(int64(perChunk))
		lap(i, s, &bk[i].transfer)
		poa := gpu.Kernel{
			Name:            "generatePOAKernel",
			Ops:             opsPerByte * perChunk,
			BytesRead:       int64(bytesPerByte * perChunk),
			Blocks:          blocks,
			ThreadsPerBlock: 256,
		}
		if err := s.Launch(poa); err != nil {
			return err
		}
		cons := gpu.Kernel{
			Name:            "generateConsensusKernel",
			Ops:             consensusOpsPerByte * perChunk,
			BytesRead:       int64(consensusBytesPerByte * perChunk),
			Blocks:          blocks,
			ThreadsPerBlock: 256,
		}
		if err := s.Launch(cons); err != nil {
			return err
		}
		s.Synchronize()
		lap(i, s, &bk[i].kernels)
		s.HostOverhead("cudaStreamSynchronize", polishSyncPerChunk)
		s.CopyD2H(int64(perChunk / 64)) // consensus is far smaller than input
		lap(i, s, &bk[i].sync)
	}

	// Per-batch setup cost.
	batchCost := perBatchOverhead
	if p.Containerized {
		batchCost = perBatchOverheadContainer
	}
	for i, s := range streams {
		s.HostOverhead("cudaMemcpyHtoD", time.Duration(p.Batches)*batchCost)
		lap(i, s, &bk[i].sync)
	}

	// Devices run concurrently: the run's stage times are those of the
	// slowest stream.
	for i := range bk {
		res.Timing.Overlap = maxDur(res.Timing.Overlap, bk[i].overlap)
		res.Timing.Alloc = maxDur(res.Timing.Alloc, bk[i].alloc)
		res.Timing.Transfer = maxDur(res.Timing.Transfer, bk[i].transfer)
		res.Timing.Kernels = maxDur(res.Timing.Kernels, bk[i].kernels)
		res.Timing.Sync = maxDur(res.Timing.Sync, bk[i].sync)
	}
	return nil
}

// openStreams attaches the process to each assigned device and pins the
// fixed CUDA-context memory (the 60 MiB per process of Fig. 11).
func openStreams(env Env, start time.Duration) (gpu.DeviceSpec, []*gpu.Stream, error) {
	var spec gpu.DeviceSpec
	streams := make([]*gpu.Stream, 0, len(env.Devices))
	for _, minor := range env.Devices {
		d, err := env.Cluster.Device(minor)
		if err != nil {
			return spec, nil, err
		}
		spec = d.Spec()
		s := d.NewStream(env.PID, env.ProcName, start, env.Profiler)
		if err := s.Malloc(contextAllocBytes); err != nil {
			s.Close()
			return spec, nil, err
		}
		streams = append(streams, s)
	}
	if len(streams) == 0 {
		return spec, nil, fmt.Errorf("racon: no devices assigned")
	}
	return spec, streams, nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
