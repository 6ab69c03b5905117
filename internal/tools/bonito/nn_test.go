package bonito

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"gyan/internal/sim"
	"gyan/internal/workload"
)

// GEMM computes C = A x B and returns C together with the FLOP count
// (2*M*N*K). It and convIm2col below are how Conv1D.Forward used to run — the
// lowering cuDNN and PyTorch apply, whose sgemm kernels the cost model
// charges — kept as the oracle the direct convolution must equal bit for bit.
func GEMM(a, b Matrix) (Matrix, int64, error) {
	if a.Cols != b.Rows {
		return Matrix{}, 0, fmt.Errorf("bonito: GEMM shape mismatch %dx%d x %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		crow := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				// The conversion rounds the product before the add, as
				// the kernel does, so neither side may be fused.
				crow[j] += float32(av * bv)
			}
		}
	}
	return c, 2 * int64(a.Rows) * int64(a.Cols) * int64(b.Cols), nil
}

// convIm2col is the layer as im2col followed by GEMM, then the bias.
func convIm2col(l *Conv1D, x Matrix) (Matrix, int64, error) {
	if x.Cols != l.InCh {
		return Matrix{}, 0, fmt.Errorf("bonito: conv input has %d channels, layer wants %d", x.Cols, l.InCh)
	}
	t := x.Rows
	half := l.Width / 2
	col := NewMatrix(t, l.InCh*l.Width)
	for i := 0; i < t; i++ {
		for w := 0; w < l.Width; w++ {
			src := i + w - half
			if src < 0 || src >= t {
				continue // zero padding
			}
			for c := 0; c < l.InCh; c++ {
				col.Set(i, c*l.Width+w, x.At(src, c))
			}
		}
	}
	out, flops, err := GEMM(col, l.Weights)
	if err != nil {
		return Matrix{}, 0, err
	}
	for i := 0; i < t; i++ {
		for c := 0; c < l.OutCh; c++ {
			out.Data[i*out.Cols+c] += l.Bias[c]
		}
	}
	return out, flops, nil
}

// Forward is forward into a fresh matrix, for the tests that want the output
// as a value.
func (l *Conv1D) Forward(x Matrix) (Matrix, int64, error) {
	out := NewMatrix(x.Rows, l.OutCh)
	flops, err := l.forward(x, out.Data)
	if err != nil {
		return Matrix{}, 0, err
	}
	return out, flops, nil
}

func requireBitIdentical(t *testing.T, what string, l *Conv1D, x Matrix) Matrix {
	t.Helper()
	got, gotFlops, err := l.Forward(x)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, wantFlops, err := convIm2col(l, x)
	if err != nil {
		t.Fatalf("%s: oracle: %v", what, err)
	}
	if got.Rows != want.Rows || got.Cols != want.Cols || gotFlops != wantFlops {
		t.Fatalf("%s: %dx%d / %d FLOPs, oracle %dx%d / %d", what, got.Rows, got.Cols, gotFlops, want.Rows, want.Cols, wantFlops)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element (%d, %d) = %v (%#x), oracle %v (%#x)", what, i/got.Cols, i%got.Cols,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
	return got
}

// TestConvForwardBitIdentical holds the direct convolution to the im2col +
// GEMM lowering it replaced, on both layers of both kinds of network over
// every read the server basecalls, and on layer shapes the network does not
// have.
func TestConvForwardBitIdentical(t *testing.T) {
	set, err := workload.AcinetobacterPittii(42)
	if err != nil {
		t.Fatal(err)
	}
	pretrained, err := NewPretrained()
	if err != nil {
		t.Fatal(err)
	}
	trained, _, err := Train(trainSet(t, 11, 10))
	if err != nil {
		t.Fatal(err)
	}
	for name, net := range map[string]*Net{"pretrained": pretrained, "trained": trained} {
		for _, sq := range set.Squiggles {
			x := NewMatrix(len(sq.Samples), 1)
			for i, s := range sq.Samples {
				x.Data[i] = float32(s)
			}
			h := requireBitIdentical(t, name+" feature "+sq.ID, net.feature, x)
			want := requireBitIdentical(t, name+" classifier "+sq.ID, net.classifier, h)
			got, _, err := net.Forward(sq.Samples)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s %s: Net.Forward logit %d differs from the layers applied one by one", name, sq.ID, i)
				}
			}
		}
	}

	rng := sim.NewRNG(5)
	random := func() float32 { return float32(rng.Float64()*4 - 2) }
	shapes := []struct{ inCh, outCh, width, t int }{
		{3, 6, 5, 40}, // InCh > 1 && Width > 1
		{2, 4, 3, 17},
		{3, 7, 7, 3}, // T < Width
		{1, 8, 5, 2},
		{2, 5, 3, 1}, // T == 1
		{1, 1, 1, 9},
		{4, 3, 1, 12}, // fewer than four output channels
		{1, 9, 3, 30},
	}
	for _, s := range shapes {
		l, err := NewConv1D(s.inCh, s.outCh, s.width)
		if err != nil {
			t.Fatal(err)
		}
		x := NewMatrix(s.t, s.inCh)
		what := fmt.Sprintf("%d->%d width %d over %d steps", s.inCh, s.outCh, s.width, s.t)
		for i := range l.Bias {
			l.Bias[i] = random()
		}
		requireBitIdentical(t, what+", zero weights and input", l, x)
		for i := range x.Data {
			x.Data[i] = random()
		}
		requireBitIdentical(t, what+", zero weights", l, x)
		for i := range l.Weights.Data {
			l.Weights.Data[i] = random()
		}
		requireBitIdentical(t, what, l, x)
		for i := range x.Data {
			if i%3 != 0 {
				x.Data[i] = 0 // the zeros the oracle's GEMM skips
			}
		}
		requireBitIdentical(t, what+", sparse input", l, x)
		requireBitIdentical(t, what+", zero input", l, NewMatrix(s.t, s.inCh))
	}
}

// TestBasecallConcurrent: Basecall owns what it returns and borrows its
// workspace from a pool, so one *Net serves several goroutines (run under
// -race).
func TestBasecallConcurrent(t *testing.T) {
	net, err := NewPretrained()
	if err != nil {
		t.Fatal(err)
	}
	sq := smallSet(t).Squiggles[0]
	calls := make([]string, 4)
	var wg sync.WaitGroup
	for g := range calls {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			call, _, err := net.Basecall(sq)
			if err != nil {
				t.Error(err)
				return
			}
			calls[g] = call.String()
		}(g)
	}
	wg.Wait()
	for g, c := range calls {
		if c == "" || c != calls[0] {
			t.Fatalf("goroutine %d decoded a different call:\n%s\nvs\n%s", g, c, calls[0])
		}
	}
}

// TestRunAllocationBounded pins workspace reuse on the job the HTTP mix
// submits: activations are allocated once, not per read (the im2col path
// allocated 13.1 MB here).
func TestRunAllocationBounded(t *testing.T) {
	set, err := workload.AcinetobacterPittii(42)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Scale = 0.001
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(set, p, Env{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Errorf("Run allocates %d B for 40 reads, want < 4 MB", got)
	}
}
