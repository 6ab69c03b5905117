//go:build !amd64

package bonito

// useAVX is false off amd64, where there is no AVX kernel.
const useAVX = false

// classify stores the class of each timestep of x (padded as run reads it)
// in classes, through run.
func (w *weights) classify(x []float32, classes []int32) {
	w.run(x, nil, classes)
}
