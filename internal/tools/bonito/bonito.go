package bonito

import (
	"fmt"
	"sync"
	"sync/atomic"
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
	// Threads is the host thread setting: up to that many goroutines
	// basecall the reads, and the cost model charges at most
	// cpuEffectiveCores of them (PyTorch's CPU GEMM saturates there).
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

// pretrained is the network every Run basecalls with, built once per process
// so that its workspace pool outlives a job.
var pretrained = sync.OnceValues(NewPretrained)

// Run basecalls the squiggle set. The CNN inference is real and identical
// across backends; durations come from the calibrated cost model.
func Run(set *workload.SquiggleSet, p Params, env Env) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if set == nil || len(set.Squiggles) == 0 {
		return nil, fmt.Errorf("bonito: empty squiggle set")
	}
	net, err := pretrained()
	if err != nil {
		return nil, err
	}
	calls, identity, flops, err := basecallAll(net, set.Squiggles, p)
	if err != nil {
		return nil, err
	}
	res := &Result{Calls: calls, MeanIdentity: identity, RealFLOPs: flops, GPUUsed: env.Cluster != nil && len(env.Devices) > 0}

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

// basecallAll decodes every squiggle and returns the calls in read order, the
// mean identity of each call against its read's ground truth and the FLOPs
// spent. Up to p.Threads workers, never more than there are reads, each take
// the next undecoded read (racon's polishAll) and score its call; a single
// worker is the calling goroutine itself. The scores are summed in read
// order, so the mean does not depend on the worker count. The first failed
// read in read order is named.
func basecallAll(net *Net, squiggles []workload.Squiggle, p Params) ([]bioseq.Seq, float64, int64, error) {
	calls := make([]bioseq.Seq, len(squiggles))
	identity := make([]float64, len(squiggles))
	flops := make([]int64, len(squiggles))
	errs := make([]error, len(squiggles))
	var next atomic.Int64
	worker := func() {
		ws := net.borrow()
		defer net.scratch.Put(ws)
		w := net.pack()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(squiggles) {
				return
			}
			sq := squiggles[i]
			if calls[i], flops[i], errs[i] = basecall(net, &w, ws, sq, p.Decoder); errs[i] == nil {
				identity[i] = bioseq.Identity(calls[i].Bases, sq.Truth.Bases)
			}
		}
	}
	if workers := min(p.Threads, len(squiggles)); workers > 1 {
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

	var total int64
	var sum float64
	for i, sq := range squiggles {
		if errs[i] != nil {
			return nil, 0, 0, fmt.Errorf("bonito: %s: %w", sq.ID, errs[i])
		}
		total += flops[i]
		sum += identity[i]
	}
	return calls, sum / float64(len(calls)), total, nil
}

// basecall decodes one squiggle in ws with the chosen decoder, the greedy one
// with the weights w packed.
func basecall(net *Net, w *weights, ws *workspace, sq workload.Squiggle, d Decoder) (bioseq.Seq, int64, error) {
	if d != DecoderBeam {
		return basecallIn(w, ws, sq)
	}
	logits, flops, err := net.Forward(sq.Samples)
	if err != nil {
		return bioseq.Seq{}, 0, err
	}
	bases, err := DecodeBeam(logits)
	if err != nil {
		return bioseq.Seq{}, 0, err
	}
	return bioseq.Seq{ID: sq.ID + "_called", Bases: bases}, flops, nil
}
