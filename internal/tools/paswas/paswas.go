package paswas

import (
	"fmt"
	"sync"
	"time"

	"gyan/internal/gpu"
	"gyan/internal/workload"
)

// Cost model calibration. PyPaSWAS reports a 33x GPU speedup over its CPU
// implementation; the constants below model both back ends in DP cells per
// second. A Python-driven CPU Smith-Waterman sustains far fewer cells per
// second than the CUDA kernels, which is where the 33x comes from.
const (
	// cpuCellsPerCorePerSec is the per-core DP throughput of the CPU
	// implementation.
	cpuCellsPerCorePerSec = 25e6
	// gpuCellsPerSec is the device DP throughput of calculate_score.
	gpuCellsPerSec = 3.3e9
	// cellsPerByte expands dataset bytes into modeled DP cells (reads
	// aligned against a reference at modest redundancy).
	cellsPerByte = 8000.0
	// tracebackFraction is the extra device work of the traceback kernel
	// relative to scoring.
	tracebackFraction = 0.05
	// gpuBatchCells is the device batch granularity; each batch costs a
	// transfer + launch + synchronize round trip.
	gpuBatchCells = 4e9
	syncPerBatch  = 10 * time.Millisecond
	// resident device memory per run: score matrices for one batch.
	workspaceBytes = 1536 << 20
	ioBandwidth    = 520e6
)

// Params configures one alignment run.
type Params struct {
	// Threads is the host thread count.
	Threads int
	// Scale is the fraction of the dataset's NominalBytes the cost model
	// simulates.
	Scale float64
}

// DefaultParams returns a 4-thread run at full scale.
func DefaultParams() Params {
	return Params{Threads: 4, Scale: 1.0}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.Threads < 1 {
		return fmt.Errorf("paswas: %d threads", p.Threads)
	}
	if p.Scale <= 0 || p.Scale > 1 {
		return fmt.Errorf("paswas: scale %v", p.Scale)
	}
	return nil
}

// StageTiming is the virtual-time breakdown.
type StageTiming struct {
	IO       time.Duration
	Compute  time.Duration
	Transfer time.Duration
	Sync     time.Duration
}

// Total returns the end-to-end virtual time.
func (t StageTiming) Total() time.Duration { return t.IO + t.Compute + t.Transfer + t.Sync }

// Result is the outcome of one run.
type Result struct {
	// Hits are the alignments, one per read, in input order.
	Hits []Hit
	// MeanIdentity is the mean alignment identity.
	MeanIdentity float64
	// RealCells is the DP work actually performed on the synthetic
	// payload.
	RealCells int64
	// Timing is the virtual-time breakdown; GPUUsed the backend flag.
	Timing   StageTiming
	GPUUsed  bool
	Sessions []*gpu.Stream
}

// Run aligns every read of the set against the reference. The alignments
// are real and identical across backends; durations come from the model.
func Run(rs *workload.ReadSet, p Params, env gpu.Env) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if rs == nil || len(rs.Reads) == 0 {
		return nil, fmt.Errorf("paswas: empty read set")
	}
	useGPU := env.Cluster != nil && len(env.Devices) > 0
	res := &Result{GPUUsed: useGPU, Hits: make([]Hit, len(rs.Reads))}

	// Real alignments, computed with a worker pool.
	threads := p.Threads
	if threads < 1 {
		threads = 1
	}
	errs := make([]error, len(rs.Reads))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				res.Hits[i], errs[i] = Align(rs.Reads[i], rs.Reference, DefaultScores())
			}
		}()
	}
	for i := range rs.Reads {
		work <- i
	}
	close(work)
	wg.Wait()
	var idSum float64
	for i := range res.Hits {
		if errs[i] != nil {
			return nil, errs[i]
		}
		res.RealCells += res.Hits[i].Cells
		idSum += res.Hits[i].Identity()
	}
	res.MeanIdentity = idSum / float64(len(res.Hits))

	// Cost model.
	scaled := float64(rs.NominalBytes) * p.Scale
	cells := scaled * cellsPerByte
	res.Timing.IO = time.Duration(scaled / ioBandwidth * float64(time.Second))
	if !useGPU {
		secs := cells / (cpuCellsPerCorePerSec * float64(p.Threads))
		res.Timing.Compute = time.Duration(secs * float64(time.Second))
		return res, nil
	}
	if err := runGPU(res, scaled, cells, env); err != nil {
		return nil, err
	}
	return res, nil
}

func runGPU(res *Result, scaled, cells float64, env gpu.Env) error {
	env.Devices = env.Devices[:1] // the aligner runs on the first device
	spec, streams, err := env.Open(env.Start + res.Timing.IO)
	if err != nil {
		return err
	}
	s := streams[0]
	release := func(err error) error {
		res.Sessions = env.Release(streams, err)
		return err
	}
	if err := s.Malloc(workspaceBytes); err != nil {
		return release(err)
	}
	batches := int(cells/gpuBatchCells) + 1
	perBatchCells := cells / float64(batches)
	perBatchBytes := scaled / float64(batches)
	// Calibrate kernel ops so device throughput is gpuCellsPerSec.
	opsPerCell := spec.PeakOpsPerSecond() * spec.ComputeEfficiency / gpuCellsPerSec

	mark := env.Start + res.Timing.IO
	lap := func(dst *time.Duration) {
		*dst += s.Now() - mark
		mark = s.Now()
	}
	lap(&res.Timing.Compute) // absorb allocation into compute setup
	for b := 0; b < batches; b++ {
		s.CopyH2D(int64(perBatchBytes))
		lap(&res.Timing.Transfer)
		scoreK := gpu.Kernel{
			Name:            "calculate_score",
			Ops:             perBatchCells * opsPerCell,
			BytesRead:       int64(perBatchCells * 0.5),
			Blocks:          4 * spec.SMs,
			ThreadsPerBlock: 256,
		}
		if err := s.Launch(scoreK); err != nil {
			return release(err)
		}
		traceK := gpu.Kernel{
			Name:            "traceback",
			Ops:             perBatchCells * opsPerCell * tracebackFraction,
			BytesRead:       int64(perBatchCells * 0.1),
			Blocks:          4 * spec.SMs,
			ThreadsPerBlock: 256,
		}
		if err := s.Launch(traceK); err != nil {
			return release(err)
		}
		s.Synchronize()
		lap(&res.Timing.Compute)
		s.HostOverhead("cudaStreamSynchronize", syncPerBatch)
		s.CopyD2H(int64(perBatchBytes / 32))
		lap(&res.Timing.Sync)
	}
	return release(nil)
}
