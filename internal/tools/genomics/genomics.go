// Package genomics simulates the three-stage short-variant pipeline that
// GPU genomics suites (Clara Parabricks, titan-style BWA-MEM offloads,
// G3SA) accelerate end to end: read alignment, variant calling against the
// draft assembly, and base-quality score recalibration (BQSR). Each stage
// does real (small) computation over the synthetic read set — alignments,
// pileup votes and empirical error tables are deterministic and checkable —
// while run time comes from a calibrated cost model, the same split the
// racon/bonito/paswas tools use. Each stage's result feeds the next, which
// is what makes the chain a workflow-engine test subject: align → call →
// bqsr is a DAG with real dataflow.
package genomics

import (
	"fmt"
	"time"

	"gyan/internal/gpu"
	"gyan/internal/workload"
)

// Env is the execution environment (mirrors racon.Env / paswas.Env).
type Env struct {
	// Cluster and Devices select the GPU backend; nil/empty runs on CPU.
	Cluster *gpu.Cluster
	Devices []int
	// PID is the simulated host process ID; ProcName the executable
	// nvidia-smi shows.
	PID      int
	ProcName string
	// Start is the run's origin on the virtual timeline.
	Start time.Duration
	// KeepOpen leaves device sessions open for the caller to close at job
	// completion (Galaxy owns session lifetime).
	KeepOpen bool
}

// StageTiming is the virtual-time breakdown of one stage.
type StageTiming struct {
	IO       time.Duration
	Compute  time.Duration
	Transfer time.Duration
	Sync     time.Duration
}

// Total returns the stage's end-to-end virtual time.
func (t StageTiming) Total() time.Duration { return t.IO + t.Compute + t.Transfer + t.Sync }

// ioBandwidth is the host storage bandwidth shared by all three stages.
const ioBandwidth = 520e6

// gpuRun charges a batched offload onto the first granted device: H2D the
// input, run the stage's kernels, sync, D2H the (much smaller) result. It
// is the common device loop behind all three stages; kernels differ only in
// name, arithmetic intensity and modeled throughput.
type gpuStage struct {
	// kernels are the per-batch kernel names, in launch order.
	kernels []string
	// unitsPerSec is the device throughput in model units (bases, pileup
	// cells, covariate observations) per second.
	unitsPerSec float64
	// bytesPerUnit converts model units back to transferred bytes.
	bytesPerUnit float64
	// workspace is the resident device allocation beyond the CUDA context.
	workspace int64
	// batchUnits is the offload granularity; each batch costs a transfer
	// plus a synchronize round trip.
	batchUnits float64
	syncCost   time.Duration
}

const contextBytes = 60 << 20

func (st gpuStage) run(timing *StageTiming, units float64, env Env) ([]*gpu.Stream, error) {
	d, err := env.Cluster.Device(env.Devices[0])
	if err != nil {
		return nil, err
	}
	spec := d.Spec()
	s := d.NewStream(env.PID, env.ProcName, env.Start+timing.IO, nil)
	fail := func(err error) ([]*gpu.Stream, error) {
		s.Close()
		return nil, err
	}
	if err := s.Malloc(contextBytes); err != nil {
		return fail(err)
	}
	if err := s.Malloc(st.workspace); err != nil {
		return fail(err)
	}
	batches := int(units/st.batchUnits) + 1
	perBatchUnits := units / float64(batches)
	perBatchBytes := perBatchUnits * st.bytesPerUnit
	// Calibrate kernel ops so the device sustains unitsPerSec.
	opsPerUnit := spec.PeakOpsPerSecond() * spec.ComputeEfficiency / st.unitsPerSec

	mark := env.Start + timing.IO
	lap := func(dst *time.Duration) {
		*dst += s.Now() - mark
		mark = s.Now()
	}
	lap(&timing.Compute) // absorb allocation into compute setup
	for b := 0; b < batches; b++ {
		s.CopyH2D(int64(perBatchBytes))
		lap(&timing.Transfer)
		perKernel := perBatchUnits * opsPerUnit / float64(len(st.kernels))
		for _, name := range st.kernels {
			k := gpu.Kernel{
				Name:            name,
				Ops:             perKernel,
				BytesRead:       int64(perBatchBytes / float64(len(st.kernels))),
				Blocks:          4 * spec.SMs,
				ThreadsPerBlock: 256,
			}
			if err := s.Launch(k); err != nil {
				return fail(err)
			}
		}
		s.Synchronize()
		lap(&timing.Compute)
		s.HostOverhead("cudaStreamSynchronize", st.syncCost)
		s.CopyD2H(int64(perBatchBytes / 64))
		lap(&timing.Sync)
	}
	if env.KeepOpen {
		return []*gpu.Stream{s}, nil
	}
	s.Close()
	return nil, nil
}

// checkSet validates the common input.
func checkSet(rs *workload.ReadSet, stage string) error {
	if rs == nil || len(rs.Reads) == 0 {
		return fmt.Errorf("genomics: %s: empty read set", stage)
	}
	if len(rs.Reference.Bases) == 0 {
		return fmt.Errorf("genomics: %s: read set has no reference", stage)
	}
	if len(rs.Starts) != len(rs.Reads) {
		return fmt.Errorf("genomics: %s: %d reads but %d start annotations",
			stage, len(rs.Reads), len(rs.Starts))
	}
	return nil
}
