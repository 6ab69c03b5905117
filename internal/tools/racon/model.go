package racon

import (
	"time"

	"gyan/internal/gpu"
)

// Cost model calibration.
//
// All simulated durations in this package derive from the constants below.
// They are calibrated so that a full-scale run (Scale = 1.0 over the 17 GiB
// Alzheimers NFL dataset) on the paper's testbed model reproduces Section
// VI-A:
//
//   - CPU end-to-end at 4 threads        ~410 s
//   - CPU polishing stage at 4 threads   ~117 s
//   - GPU polishing kernels              ~13 s, after ~2 s of allocation
//   - GPU-side API overhead (sync+copy)  ~30-40 s
//   - GPU end-to-end                     ~200 s
//
// and so that the Fig. 3 experiment (Scale = 1/36) lands near the paper's
// 3.22 s CPU vs 1.72 s GPU polishing times. Work constants are "per scaled
// byte": the modeled dataset size is NominalBytes x Scale, letting small
// synthetic payloads stand in for the paper's multi-gigabyte inputs.
const (
	// ioBandwidth is the sustained dataset streaming rate from storage.
	ioBandwidth = 520e6 // bytes/s

	// Host-side work, in operations per scaled byte. cpuSerialFraction is
	// the Amdahl serial share limiting thread scaling (Racon's window
	// dispatch and I/O are serialized around the parallel DP).
	cpuOverlapOpsPerByte = 59.5
	cpuPolishOpsPerByte  = 27.0
	hostPrepOpsPerByte   = 4.6 // GPU runs: feature packing before upload
	stitchOpsPerByte     = 0.25
	cpuSerialFraction    = 0.30

	// Device kernels, per scaled byte. The split between ops and bytes
	// fixes each kernel's roofline position: both POA kernels sit at
	// memory fraction ~0.72-0.74, which reproduces the paper's NVProf
	// stall analysis (~70% memory dependency, ~20% execution dependency).
	alignKernelOpsPerByte   = 1545.0
	alignKernelBytesPerByte = 1249.0
	poaKernelOpsPerByte     = 191.0
	poaKernelBytesPerByte   = 171.0
	consensusOpsPerByte     = 14.8
	consensusBytesPerByte   = 13.2

	// bandingWorkFactor is the arithmetic remaining when the banded
	// ("banding approximation") kernels are used; bandingBytesFactor is
	// the memory traffic remaining. The band skips whole DP anti-diagonals,
	// so it saves proportionally more traffic than arithmetic.
	bandingWorkFactor  = 0.58
	bandingBytesFactor = 0.40

	// bandingSaturationBatches is the batch count at which banded kernels
	// reach full device occupancy: the narrow band exposes less
	// parallelism per window, so more concurrent batches are needed —
	// this is why the paper's best banded configuration uses 16 batches
	// while the best unbanded one uses a single batch.
	bandingSaturationBatches = 12

	// chunkBytes is the host->device staging granularity for datasets
	// larger than the device pool ("chunks that fit in GPU memory").
	chunkBytes = 64 << 20

	// Per-chunk synchronization residue: dispatch stalls and
	// cudaStreamSynchronize overhead beyond kernel completion, the
	// dominant part of the paper's ~40 s CUDA API overhead.
	alignSyncPerChunk  = 20 * time.Millisecond
	polishSyncPerChunk = 90 * time.Millisecond

	// perBatchOverhead is the fixed cost of setting up one cudapoa batch;
	// containers pay more for device multiplexing.
	perBatchOverhead          = 8 * time.Millisecond
	perBatchOverheadContainer = 10 * time.Millisecond

	// Device pool sizing: the working set is ~2x the scaled input, capped
	// by what the paper's run allocates (Fig. 10 shows racon holding
	// ~2.7 GiB mid-run; full-scale pool is 4 GiB). Banding needs a
	// smaller pool.
	poolBytesPerScaledByte = 2.0
	poolCapBytes           = 4 << 30
	bandingPoolFactor      = 0.6

	// containerThreadCap models the Docker CPU quota of the paper's
	// containerized runs: host stages see at most this many effective
	// threads, and oversubscribing beyond it costs a small penalty. This
	// is why Fig. 7's best configuration uses 2 threads where the
	// bare-metal best (Fig. 3) uses 4.
	containerThreadCap        = 2
	containerOversubPenalty   = 1.05 // per thread beyond the cap
	containerColdStartSeconds = 0.6  // Fig. 7: ~0.6 s launch + cold start
)

// cpuStageTime models a host-parallel stage of `ops` operations at the given
// thread count under Amdahl's law.
func cpuStageTime(ops float64, threads int, host gpu.HostSpec, containerized bool) time.Duration {
	if threads < 1 {
		threads = 1
	}
	if threads > host.Cores {
		threads = host.Cores
	}
	penalty := 1.0
	if containerized && threads > containerThreadCap {
		for t := containerThreadCap; t < threads; t++ {
			penalty *= containerOversubPenalty
		}
		threads = containerThreadCap
	}
	t1 := ops / host.OpsPerCorePerSecond
	secs := t1 * (cpuSerialFraction + (1-cpuSerialFraction)/float64(threads)) * penalty
	return time.Duration(secs * float64(time.Second))
}

// poaBlocks returns the launch-grid block count for the POA kernels: unbanded
// windows expose enough row parallelism to fill the device outright, while
// banded windows need several concurrent batches to saturate the SMs.
func poaBlocks(spec gpu.DeviceSpec, batches int, banding bool) int {
	if !banding {
		return 4 * spec.SMs
	}
	blocks := (batches*spec.SMs + bandingSaturationBatches - 1) / bandingSaturationBatches
	if blocks < 1 {
		blocks = 1
	}
	if blocks > 4*spec.SMs {
		blocks = 4 * spec.SMs
	}
	return blocks
}
