// Package bonito reimplements the Bonito basecaller the paper evaluates: a
// convolutional neural network that converts raw nanopore signal into
// nucleotide sequences, decoded with CTC greedy decoding (Bonito is
// "inspired by the usage of convolutional neural networks in speech
// recognition", Section V-A).
//
// The network computation is real, and the CPU and simulated-GPU paths
// decode identical sequences: the host runs both layers in one fused pass per
// timestep (Net.Basecall), straight from the signal. On amd64 hosts with AVX
// that pass takes eight timesteps at a time, one per YMM lane
// (kernel_amd64.s), with the Go kernel's arithmetic and tie rule lane by
// lane; the Go kernel takes the rest of each read, other hosts and
// architectures, and Forward. Run spreads a job's reads over Params.Threads
// workers, each of which also scores its calls against the ground truth. The
// run time is charged to the virtual clock by the cost model in model.go,
// which bills the `sgemm` kernels cuDNN and PyTorch lower these convolutions
// to, calibrated to the paper's Fig. 5 (>210 h CPU vs >50x GPU speedup).
package bonito

import "fmt"

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("bonito: matrix %dx%d", rows, cols))
	}
	return Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns element (r, c).
func (m Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Conv1D holds the weights of a 1-D convolution layer over a multi-channel
// sequence; Net's fused kernel computes both of its layers.
type Conv1D struct {
	// InCh and OutCh are channel counts; Width is the kernel width
	// (odd; the layer pads with zeros to preserve sequence length).
	InCh, OutCh, Width int
	// Weights is laid out [InCh*Width][OutCh], row c*Width+w holding tap w
	// of input channel c; Bias is per output channel.
	Weights Matrix
	Bias    []float32
}

// NewConv1D allocates a zero-initialized layer.
func NewConv1D(inCh, outCh, width int) (*Conv1D, error) {
	if width%2 == 0 || width < 1 {
		return nil, fmt.Errorf("bonito: conv width %d must be odd", width)
	}
	if inCh < 1 || outCh < 1 {
		return nil, fmt.Errorf("bonito: conv channels %d->%d", inCh, outCh)
	}
	return &Conv1D{
		InCh:    inCh,
		OutCh:   outCh,
		Width:   width,
		Weights: NewMatrix(inCh*width, outCh),
		Bias:    make([]float32, outCh),
	}, nil
}
