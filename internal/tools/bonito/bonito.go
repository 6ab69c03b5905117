package bonito

import (
	"fmt"
	"time"

	"gyan/internal/bioseq"
	"gyan/internal/gpu"
	"gyan/internal/workload"
)

// Decoder selects the CTC decoding algorithm.
type Decoder string

// Decoder choices.
const (
	// DecoderGreedy is per-timestep argmax with blip repair (fast).
	DecoderGreedy Decoder = "greedy"
	// DecoderBeam is CTC prefix beam search (exact MAP decoding).
	DecoderBeam Decoder = "beam"
)

// Params configures one basecalling run.
type Params struct {
	// Threads is the host thread setting (PyTorch's CPU GEMM saturates at
	// cpuEffectiveCores regardless).
	Threads int
	// Scale is the fraction of the dataset's NominalBytes the cost model
	// simulates; 1.0 reproduces the paper's full runs.
	Scale float64
	// Containerized applies the Docker launch cost.
	Containerized bool
	// Decoder selects the CTC decoder; empty means greedy.
	Decoder Decoder
}

// DefaultParams returns the paper's configuration.
func DefaultParams() Params { return Params{Threads: 4, Scale: 1.0} }

// Validate reports parameter errors.
func (p Params) Validate() error {
	switch {
	case p.Threads < 1:
		return fmt.Errorf("bonito: %d threads", p.Threads)
	case p.Scale <= 0 || p.Scale > 1:
		return fmt.Errorf("bonito: scale %v outside (0, 1]", p.Scale)
	case p.Decoder != "" && p.Decoder != DecoderGreedy && p.Decoder != DecoderBeam:
		return fmt.Errorf("bonito: unknown decoder %q", p.Decoder)
	}
	return nil
}

// Env is the execution environment (see racon.Env; the fields mirror it).
type Env struct {
	Cluster  *gpu.Cluster
	Devices  []int
	PID      int
	ProcName string
	Profiler gpu.Profiler
	Start    time.Duration
	KeepOpen bool
}

// StageTiming is the virtual-time breakdown of one run.
type StageTiming struct {
	IO       time.Duration
	Load     time.Duration // model load + device warmup
	Compute  time.Duration // CNN forward passes (CPU or GPU kernels)
	Transfer time.Duration // PCIe traffic (GPU runs)
	Sync     time.Duration // launch/synchronize residue (GPU runs)
}

// Total returns the end-to-end virtual time.
func (t StageTiming) Total() time.Duration {
	return t.IO + t.Load + t.Compute + t.Transfer + t.Sync
}

// Result is the outcome of one basecalling run.
type Result struct {
	// Calls are the decoded sequences, one per input squiggle.
	Calls []bioseq.Seq
	// MeanIdentity is the mean identity of calls against the ground
	// truth.
	MeanIdentity float64
	// RealFLOPs is the floating-point work actually performed on the
	// synthetic payload.
	RealFLOPs int64
	// Timing is the virtual-time breakdown.
	Timing StageTiming
	// GPUUsed reports whether the run executed on GPU devices.
	GPUUsed bool
	// Sessions are the still-open device streams when Env.KeepOpen was
	// set.
	Sessions []*gpu.Stream
}

// Run basecalls the squiggle set. The CNN inference is real and identical
// across backends; durations come from the calibrated cost model.
func Run(set *workload.SquiggleSet, p Params, env Env) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if set == nil || len(set.Squiggles) == 0 {
		return nil, fmt.Errorf("bonito: empty squiggle set")
	}
	net, err := NewPretrained()
	if err != nil {
		return nil, err
	}

	res := &Result{GPUUsed: env.Cluster != nil && len(env.Devices) > 0}
	for _, sq := range set.Squiggles {
		var call bioseq.Seq
		var flops int64
		if p.Decoder == DecoderBeam {
			logits, f, ferr := net.Forward(sq.Samples)
			if ferr != nil {
				return nil, fmt.Errorf("bonito: %s: %w", sq.ID, ferr)
			}
			bases, derr := DecodeBeam(logits)
			if derr != nil {
				return nil, fmt.Errorf("bonito: %s: %w", sq.ID, derr)
			}
			call, flops = bioseq.Seq{ID: sq.ID + "_called", Bases: bases}, f
		} else {
			var err error
			call, flops, err = net.Basecall(sq)
			if err != nil {
				return nil, fmt.Errorf("bonito: %s: %w", sq.ID, err)
			}
		}
		res.Calls = append(res.Calls, call)
		res.RealFLOPs += flops
	}
	res.MeanIdentity = meanIdentity(set, res.Calls)

	// Cost model.
	scaled := float64(set.NominalBytes) * p.Scale
	res.Timing.IO = time.Duration(scaled / ioBandwidth * float64(time.Second))
	if p.Containerized {
		// Container cold start (the same ~0.6 s racon's Fig. 7 measures).
		res.Timing.Load += 600 * time.Millisecond
	}
	modelOps := scaled * samplesPerByte * flopsPerSample

	if !res.GPUUsed {
		host := gpu.XeonHost()
		cores := p.Threads
		if cores > cpuEffectiveCores {
			cores = cpuEffectiveCores
		}
		res.Timing.Load = 30 * time.Second // model load, no device warmup
		res.Timing.Compute = time.Duration(modelOps / (host.OpsPerCorePerSecond * float64(cores)) * float64(time.Second))
		return res, nil
	}
	if err := runGPU(res, scaled, modelOps, env); err != nil {
		return nil, err
	}
	return res, nil
}

// runGPU charges the GPU execution: model load, then mini-batches of
// transfer + GEMM kernels + synchronize, spread across the assigned devices.
func runGPU(res *Result, scaled, modelOps float64, env Env) error {
	streams := make([]*gpu.Stream, 0, len(env.Devices))
	var spec gpu.DeviceSpec
	start := env.Start + res.Timing.IO
	for _, minor := range env.Devices {
		d, err := env.Cluster.Device(minor)
		if err != nil {
			return err
		}
		spec = d.Spec()
		s := d.NewStream(env.PID, env.ProcName, start, env.Profiler)
		if err := s.Malloc(contextAllocBytes); err != nil {
			s.Close()
			return err
		}
		if err := s.Malloc(modelResidentBytes); err != nil {
			s.Close()
			return fmt.Errorf("bonito: model workspace on device %d: %w", minor, err)
		}
		streams = append(streams, s)
	}
	if len(streams) == 0 {
		return fmt.Errorf("bonito: no devices assigned")
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

	batches := int(scaled/(bytesPerRead*batchReads)) + 1
	perBatchBytes := scaled / float64(batches)
	perBatchOps := modelOps / float64(batches)

	type buckets struct{ load, compute, transfer, sync time.Duration }
	bk := make([]buckets, len(streams))
	mark := make([]time.Duration, len(streams))
	for i := range streams {
		// Start the first lap at the stream origin so the context and
		// workspace allocations above are charged to the load bucket.
		mark[i] = start
	}
	lap := func(i int, s *gpu.Stream, dst *time.Duration) {
		*dst += s.Now() - mark[i]
		mark[i] = s.Now()
	}
	for i, s := range streams {
		// Model load and CUDA warmup.
		s.CopyH2D(500 << 20)
		s.HostOverhead("cudaDeviceSynchronize", 8*time.Second)
		lap(i, s, &bk[i].load)
	}

	gemmBytes := perBatchOps * gemmMemFraction / (1 - gemmMemFraction) /
		spec.PeakOpsPerSecond() * spec.MemoryBandwidth / gemmEfficiency
	for b := 0; b < batches; b++ {
		i := b % len(streams)
		s := streams[i]
		s.CopyH2D(int64(perBatchBytes))
		lap(i, s, &bk[i].transfer)
		k := gpu.Kernel{
			Name:            "sgemm_kepler_128x64",
			Ops:             perBatchOps,
			BytesRead:       int64(gemmBytes),
			Blocks:          4 * spec.SMs,
			ThreadsPerBlock: 256,
			Efficiency:      gemmEfficiency,
		}
		if err := s.Launch(k); err != nil {
			return err
		}
		s.Synchronize()
		lap(i, s, &bk[i].compute)
		// The real network issues one launch per layer per step; charge
		// the aggregate launcher time the profiler attributes to
		// cudaLaunchKernel in Fig. 6.
		s.HostOverhead("cudaLaunchKernel",
			time.Duration(launchesPerBatch)*s.Device().Spec().KernelLaunchOverhead)
		s.HostOverhead("cudaStreamSynchronize", syncPerBatch)
		s.CopyD2H(int64(perBatchBytes / 16))
		lap(i, s, &bk[i].sync)
	}
	for i := range bk {
		res.Timing.Load = maxDur(res.Timing.Load, bk[i].load)
		res.Timing.Compute = maxDur(res.Timing.Compute, bk[i].compute)
		res.Timing.Transfer = maxDur(res.Timing.Transfer, bk[i].transfer)
		res.Timing.Sync = maxDur(res.Timing.Sync, bk[i].sync)
	}
	return nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// meanIdentity averages the identity of calls against the ground truth of
// the squiggles they were decoded from, one call per squiggle.
func meanIdentity(set *workload.SquiggleSet, calls []bioseq.Seq) float64 {
	var sum float64
	for i, sq := range set.Squiggles {
		sum += bioseq.Identity(calls[i].Bases, sq.Truth.Bases)
	}
	return sum / float64(len(calls))
}
