package bonito

// hasAVX reports whether the CPU has AVX and the OS saves the YMM registers
// (CPUID and XGETBV).
func hasAVX() bool

// runAVX is run's class pass eight timesteps at a time, one per YMM lane:
// the same products and sums in the same order, a VMULPS and a separate
// VADDPS each, so each lane's class is the one run stores. len(classes) must
// be a multiple of 8 and x at least two samples longer.
//
//go:noescape
func runAVX(w *weights, x []float32, classes []int32)

// useAVX is whether classify runs runAVX, decided once per process.
var useAVX = hasAVX()

// classify stores the class of each timestep of x (padded as run reads it)
// in classes: eight timesteps at a time in AVX lanes where the CPU has them,
// the last len(classes) mod 8 (or all of them) through run.
func (w *weights) classify(x []float32, classes []int32) {
	n := 0
	if useAVX {
		n = len(classes) &^ 7
		runAVX(w, x[:n+2], classes[:n])
	}
	w.run(x[n:], nil, classes[n:])
}
