package bonito

import "time"

// Cost model calibration.
//
// Targets from the paper's Fig. 5 and Section VI-A:
//
//   - Acinetobacter_pittii (1.5 GB): CPU basecalling exceeded 210 hours.
//   - Klebsiella_pneumoniae_KSB2 (5.2 GB): approximated to >850 hours
//     ("4x longer than the smaller dataset").
//   - GPU vs CPU speedup "more than 50x".
//
// The model is linear in dataset bytes. At these constants the 1.5 GB set
// costs ~216 CPU-hours and the GPU run lands at a ~53x speedup; the 5.2 GB
// set scales by 5.2/1.5 = 3.47x (the paper rounds this to "4x"), so our
// large-set CPU estimate is ~750 h against the paper's ">850 h" — same
// order, same winner. See EXPERIMENTS.md.
const (
	// samplesPerByte converts fast5 bytes to raw signal samples (fast5
	// stores ~2 compressed bytes per sample).
	samplesPerByte = 0.5

	// flopsPerSample is the forward-pass cost of the real Bonito CNN per
	// signal sample (the production network is far deeper than the
	// matched filter we construct; the cost model charges for the real
	// one).
	flopsPerSample = 8.3e6

	// cpuEffectiveCores caps how many cores PyTorch's CPU GEMM actually
	// sustains for this model shape, regardless of the thread setting.
	cpuEffectiveCores = 4

	// gemmEfficiency is the fraction of K80 peak the fp32 GEMM kernels
	// sustain (Kepler-era cuBLAS on small batch sizes).
	gemmEfficiency = 0.20

	// batchReads is the mini-batch size of the GPU basecaller; each batch
	// costs one transfer + kernel + synchronize round trip.
	batchReads = 32

	// bytesPerRead approximates one read's share of the dataset, used to
	// derive the batch count from the modeled dataset size.
	bytesPerRead = 9600

	// syncPerBatch is the synchronize residue per mini-batch, and
	// launchesPerBatch the number of kernel launches the real network
	// issues per mini-batch (one per layer/activation/decode step) —
	// together with the GEMM kernels these are what Fig. 6's hotspot
	// list shows (CUDA kernel launcher, kernel synchronizer, GEMM).
	syncPerBatch     = 20 * time.Millisecond
	launchesPerBatch = 120

	// gemmMemFraction positions the GEMM kernels on the roofline:
	// compute-bound, unlike Racon's POA kernels.
	gemmMemFraction = 0.20

	// modelResidentBytes is the device memory the loaded network and
	// activation workspace pin for the duration of a run.
	modelResidentBytes = 3 << 30

	// ioBandwidth is fast5 streaming from storage.
	ioBandwidth = 520e6
)
