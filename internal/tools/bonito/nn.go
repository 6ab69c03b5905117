// Package bonito reimplements the Bonito basecaller the paper evaluates: a
// convolutional neural network that converts raw nanopore signal into
// nucleotide sequences, decoded with CTC greedy decoding (Bonito is
// "inspired by the usage of convolutional neural networks in speech
// recognition", Section V-A).
//
// The network computation is real, and the CPU and simulated-GPU paths
// decode identical sequences: the host computes each convolution directly
// from its input (Conv1D.Forward). The run time is charged to the virtual
// clock by the cost model in model.go, which bills the `sgemm` kernels cuDNN
// and PyTorch lower these convolutions to, calibrated to the paper's Fig. 5
// (>210 h CPU vs >50x GPU speedup).
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

// Conv1D is a 1-D convolution layer over a multi-channel sequence.
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

// forward writes the layer's T x OutCh output into out, every element of it.
//
// Output (i, o) is the float32 sum, from zero and in ascending k = c*Width+w,
// of x[i+w-Width/2][c] * Weights[k][o] (zero outside the sequence), then plus
// Bias[o], each product rounded to float32 before it is added: exactly the
// sequence of operations of a row-major GEMM over the layer's unrolled input
// (the oracle in nn_test.go). Such a GEMM may skip zero inputs; with finite
// weights that changes no bit, since a sum that starts at +0 never becomes -0.
func (l *Conv1D) forward(x Matrix, out []float32) (int64, error) {
	if x.Cols != l.InCh {
		return 0, fmt.Errorf("bonito: conv input has %d channels, layer wants %d", x.Cols, l.InCh)
	}
	t, k := x.Rows, l.InCh*l.Width
	// Transposed weights, so each output channel reads its k taps in a
	// row, followed by the buffer non-contiguous windows gather into.
	buf := make([]float32, (l.OutCh+1)*k)
	wt, gather := buf[:l.OutCh*k], buf[l.OutCh*k:]
	for j := 0; j < k; j++ {
		for o := 0; o < l.OutCh; o++ {
			wt[o*k+j] = l.Weights.Data[j*l.OutCh+o]
		}
	}
	o := 0
	for ; o+4 <= l.OutCh; o += 4 { // four channels' sums held in registers
		w0, w1, w2, w3 := wt[o*k:][:k], wt[(o+1)*k:][:k], wt[(o+2)*k:][:k], wt[(o+3)*k:][:k]
		b0, b1, b2, b3 := l.Bias[o], l.Bias[o+1], l.Bias[o+2], l.Bias[o+3]
		for i := 0; i < t; i++ {
			var s0, s1, s2, s3 float32
			for j, a := range l.window(x, i, gather) {
				s0 += float32(a * w0[j])
				s1 += float32(a * w1[j])
				s2 += float32(a * w2[j])
				s3 += float32(a * w3[j])
			}
			y := out[i*l.OutCh+o:][:4]
			y[0], y[1], y[2], y[3] = s0+b0, s1+b1, s2+b2, s3+b3
		}
	}
	for ; o < l.OutCh; o++ { // the channels left over, one at a time
		w0 := wt[o*k:][:k]
		for i := 0; i < t; i++ {
			var s float32
			for j, a := range l.window(x, i, gather) {
				s += float32(a * w0[j])
			}
			out[i*l.OutCh+o] = s + l.Bias[o]
		}
	}
	return 2 * int64(t) * int64(k) * int64(l.OutCh), nil
}

// window returns the InCh*Width inputs output row i reads, in the order of
// the rows of Weights. For a pointwise layer, and for a single input channel
// away from the edges, they already lie in x as they are; any other window
// is gathered into the caller's buffer, zero outside the sequence.
func (l *Conv1D) window(x Matrix, i int, gather []float32) []float32 {
	k, half := len(gather), l.Width/2
	switch {
	case l.Width == 1:
		return x.Data[i*k:][:k]
	case l.InCh == 1 && i >= half && i+half < x.Rows:
		return x.Data[i-half:][:k]
	}
	for j := range gather {
		gather[j] = 0
		if src := i + j%l.Width - half; src >= 0 && src < x.Rows {
			gather[j] = x.Data[src*l.InCh+j/l.Width]
		}
	}
	return gather
}
