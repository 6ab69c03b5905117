package bonito

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gyan/internal/gpu"
	"gyan/internal/sim"
	"gyan/internal/workload"
)

// GEMM computes C = A x B and returns C together with the FLOP count
// (2*M*N*K). It and convIm2col below are the lowering cuDNN and PyTorch apply
// to the network's layers, whose sgemm kernels the cost model charges — kept
// as the oracle Net's fused kernel must equal bit for bit.
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

// oracleLogits is the network as its two layers lowered to im2col + GEMM,
// one after the other: what the fused kernel must equal bit for bit.
func oracleLogits(t testing.TB, net *Net, samples []float64) (Matrix, int64) {
	t.Helper()
	x := NewMatrix(len(samples), 1)
	for i, s := range samples {
		x.Data[i] = float32(s)
	}
	h, f1, err := convIm2col(net.feature, x)
	if err != nil {
		t.Fatal(err)
	}
	logits, f2, err := convIm2col(net.classifier, h)
	if err != nil {
		t.Fatal(err)
	}
	return logits, f1 + f2
}

// requireMatchesOracle holds Forward's logits to the oracle's by Float32bits
// and Basecall's bases to the greedy decoder applied to the oracle's logits.
func requireMatchesOracle(t testing.TB, what string, net *Net, sq workload.Squiggle) {
	t.Helper()
	want, wantFlops := oracleLogits(t, net, sq.Samples)
	got, gotFlops, err := net.Forward(sq.Samples)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got.Rows != want.Rows || got.Cols != want.Cols || gotFlops != wantFlops {
		t.Fatalf("%s: %dx%d / %d FLOPs, oracle %dx%d / %d", what, got.Rows, got.Cols, gotFlops, want.Rows, want.Cols, wantFlops)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: logit (%d, %d) = %v (%#x), oracle %v (%#x)", what, i/got.Cols, i%got.Cols,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
	wantBases, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	call, callFlops, err := net.Basecall(sq)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if string(call.Bases) != string(wantBases) || callFlops != wantFlops {
		t.Fatalf("%s: Basecall gave %q / %d FLOPs, the oracle's logits decode to %q / %d",
			what, call.Bases, callFlops, wantBases, wantFlops)
	}
}

// randomNet is a network of the pretrained shapes with random finite
// weights, zeros/256 of them a signed zero.
func randomNet(rng *sim.RNG, zeros int) *Net {
	feature, _ := NewConv1D(1, hiddenChannels, 3)
	classifier, _ := NewConv1D(hiddenChannels, numClasses, 1)
	for _, v := range [][]float32{feature.Weights.Data, feature.Bias, classifier.Weights.Data, classifier.Bias} {
		for i := range v {
			v[i] = randomValue(rng, zeros)
		}
	}
	return &Net{feature: feature, classifier: classifier}
}

// randomValue is +0 or -0 with probability zeros/256, else uniform in
// [-2, 2).
func randomValue(rng *sim.RNG, zeros int) float32 {
	if rng.Intn(256) < zeros {
		return float32(math.Copysign(0, float64(rng.Intn(2))-0.5))
	}
	return float32(rng.Float64()*4 - 2)
}

// TestConvForwardBitIdentical holds the fused kernel to the im2col + GEMM
// lowering of the two layers, on every read the server basecalls through the
// pretrained and a trained net, and on random-weight nets of the network's
// shapes over short, sparse and zero signals.
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
			requireMatchesOracle(t, name+" "+sq.ID, net, sq)
		}
	}

	rng := sim.NewRNG(5)
	for _, steps := range []int{1, 2, 3, 17, 40} {
		net := randomNet(rng, 64)
		sq := workload.Squiggle{ID: fmt.Sprint("random", steps), Samples: make([]float64, steps)}
		what := fmt.Sprintf("random net over %d steps", steps)
		requireMatchesOracle(t, what+", zero input", net, sq)
		for i := range sq.Samples {
			sq.Samples[i] = float64(randomValue(rng, 64))
		}
		requireMatchesOracle(t, what, net, sq)
		// A classifier of signed zeros makes every logit a sum of signed
		// zeros: a sum that does not start from +0 reads -0 somewhere.
		zeros := &Net{feature: net.feature, classifier: randomNet(rng, 256).classifier}
		requireMatchesOracle(t, what+", signed-zero classifier", zeros, sq)
		for i := range sq.Samples {
			if i%3 != 0 {
				sq.Samples[i] = 0 // the zeros the oracle's GEMM skips
			}
		}
		requireMatchesOracle(t, what+", sparse input", net, sq)
		requireMatchesOracle(t, what+", signed zeros only", randomNet(rng, 256), sq)
	}

	// Features of 1 into a classifier of -0 make every product and bias -0:
	// a logit that does not start its sum from +0 reads -0.
	feature, _ := NewConv1D(1, hiddenChannels, 3)
	classifier, _ := NewConv1D(hiddenChannels, numClasses, 1)
	for i := range feature.Bias {
		feature.Bias[i] = 1
	}
	for _, v := range [][]float32{classifier.Weights.Data, classifier.Bias} {
		for i := range v {
			v[i] = float32(math.Copysign(0, -1))
		}
	}
	minus := &Net{feature: feature, classifier: classifier}
	requireMatchesOracle(t, "-0 classifier", minus, workload.Squiggle{ID: "minus", Samples: []float64{1, -1, 0, 2}})
}

// TestBasecallMatchesOracle decodes every read of both Bonito datasets at
// seeds 1-5 through the pretrained and a trained net, each against the
// greedy decoder applied to the oracle's logits.
func TestBasecallMatchesOracle(t *testing.T) {
	pretrained, err := NewPretrained()
	if err != nil {
		t.Fatal(err)
	}
	trained, _, err := Train(trainSet(t, 11, 10))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, load := range []func(uint64) (*workload.SquiggleSet, error){workload.AcinetobacterPittii, workload.KlebsiellaPneumoniae} {
			set, err := load(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, sq := range set.Squiggles {
				requireMatchesOracle(t, fmt.Sprintf("pretrained %s seed %d %s", set.Name, seed, sq.ID), pretrained, sq)
				requireMatchesOracle(t, fmt.Sprintf("trained %s seed %d %s", set.Name, seed, sq.ID), trained, sq)
			}
		}
	}
}

// classesOf is the class pass of net over samples: through classify (AVX
// lanes where the host has them, then the Go tail) if avx, else run alone.
func classesOf(net *Net, samples []float64, avx bool) []int32 {
	w := net.pack()
	x := make([]float32, len(samples)+2)
	for i, s := range samples {
		x[i+1] = float32(s)
	}
	classes := make([]int32, len(samples))
	if avx {
		w.classify(x, classes)
	} else {
		w.run(x, nil, classes)
	}
	return classes
}

// minusZeroNet has features of 1 and a classifier of -0: every product and
// bias of a logit is -0, so a logit whose sum does not start from +0 reads -0.
func minusZeroNet() *Net {
	feature, _ := NewConv1D(1, hiddenChannels, 3)
	classifier, _ := NewConv1D(hiddenChannels, numClasses, 1)
	for i := range feature.Bias {
		feature.Bias[i] = 1
	}
	for _, v := range [][]float32{classifier.Weights.Data, classifier.Bias} {
		for i := range v {
			v[i] = float32(math.Copysign(0, -1))
		}
	}
	return &Net{feature: feature, classifier: classifier}
}

// TestAVXKernelMatchesOracle holds the classes classify stores, eight
// timesteps a lane pass and the rest through run, to the first maximum of the
// oracle's logits: on the nets and inputs TestConvForwardBitIdentical builds,
// the random ones at every length from 1 to 40 (shorter than a lane pass, and
// every tail) and with NaN and infinite samples, and on prefixes of that
// length of a real read.
func TestAVXKernelMatchesOracle(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this host: classify runs the Go kernel alone")
	}
	check := func(what string, net *Net, samples []float64) {
		t.Helper()
		logits, _ := oracleLogits(t, net, samples)
		want := argmaxClasses(logits)
		got := classesOf(net, samples, true)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: timestep %d of %d is class %d, the oracle's first maximum is %d",
					what, i, len(want), got[i], want[i])
			}
		}
	}
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
	fixed := []struct {
		name string
		net  *Net
	}{{"pretrained", pretrained}, {"trained", trained}, {"-0 classifier", minusZeroNet()}}
	for _, f := range fixed {
		for _, sq := range set.Squiggles {
			check(f.name+" "+sq.ID, f.net, sq.Samples)
		}
	}

	rng := sim.NewRNG(5)
	for steps := 1; steps <= 40; steps++ {
		for _, f := range fixed {
			check(fmt.Sprintf("%s over the first %d steps", f.name, steps), f.net, set.Squiggles[0].Samples[:steps])
		}
		net := randomNet(rng, 64)
		samples := make([]float64, steps)
		what := fmt.Sprintf("random net over %d steps", steps)
		check(what+", zero input", net, samples)
		for i := range samples {
			samples[i] = float64(randomValue(rng, 64))
		}
		check(what, net, samples)
		zeros := &Net{feature: net.feature, classifier: randomNet(rng, 256).classifier}
		check(what+", signed-zero classifier", zeros, samples)
		for i := range samples {
			if i%3 != 0 {
				samples[i] = 0
			}
		}
		check(what+", sparse input", net, samples)
		check(what+", signed zeros only", randomNet(rng, 256), samples)
		// NaN and infinite samples make NaN logits: the strict l > top
		// never moves the class to a NaN, nor away from one.
		samples[rng.Intn(steps)] = math.NaN()
		samples[rng.Intn(steps)] = math.Inf(1 - 2*rng.Intn(2))
		check(what+", non-finite input", net, samples)
	}
}

// TestKernelPathsAgree: classify and the Go kernel alone store the same class
// at every timestep of every read of both Bonito datasets at seeds 1-5,
// through the pretrained and a trained net.
func TestKernelPathsAgree(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this host: classify runs the Go kernel alone")
	}
	pretrained, err := NewPretrained()
	if err != nil {
		t.Fatal(err)
	}
	trained, _, err := Train(trainSet(t, 11, 10))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, load := range []func(uint64) (*workload.SquiggleSet, error){workload.AcinetobacterPittii, workload.KlebsiellaPneumoniae} {
			set, err := load(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, sq := range set.Squiggles {
				for name, net := range map[string]*Net{"pretrained": pretrained, "trained": trained} {
					avx, scalar := classesOf(net, sq.Samples, true), classesOf(net, sq.Samples, false)
					for i := range scalar {
						if avx[i] != scalar[i] {
							t.Fatalf("%s %s seed %d %s: timestep %d is class %d through classify, %d through run",
								name, set.Name, seed, sq.ID, i, avx[i], scalar[i])
						}
					}
				}
			}
		}
	}
}

// FuzzBasecall holds the fused kernel to the oracle on random-weight nets of
// the network's shapes (finite weights, weightZeros/256 of them signed zeros)
// over signals of 1-64 samples, zeros where the mask has a bit set. Basecall
// takes the classes of whole eight-step blocks from the AVX lanes where the
// host has them.
func FuzzBasecall(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint64(0), uint8(0))
	f.Add(uint64(2), uint8(63), uint64(0xf0f0), uint8(64))
	f.Add(uint64(3), uint8(7), ^uint64(0), uint8(200))
	f.Fuzz(func(t *testing.T, seed uint64, steps uint8, zeros uint64, weightZeros uint8) {
		rng := sim.NewRNG(seed)
		net := randomNet(rng, int(weightZeros))
		sq := workload.Squiggle{ID: "fuzz", Samples: make([]float64, 1+int(steps)%64)}
		for i := range sq.Samples {
			if zeros&(1<<i) == 0 {
				sq.Samples[i] = float64(randomValue(rng, 64))
			}
		}
		requireMatchesOracle(t, "fuzz", net, sq)
	})
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

// TestRunAllocationBounded pins the one pretrained net per process and its
// workspace reuse on the job the HTTP mix submits: a warm Run allocates the
// calls and its bookkeeping, not activations (a net built per job allocated
// ~290 KB here, the im2col path 13.1 MB).
func TestRunAllocationBounded(t *testing.T) {
	set, err := workload.AcinetobacterPittii(42)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Scale = 0.001
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(set, p, Env{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // warm the pool
	// A collection may empty the pool between two runs (and the race
	// detector drops a share of what is put back); the best of a few is the
	// warm figure.
	best := uint64(1 << 62)
	for i := 0; i < 5; i++ {
		best = min(best, run())
	}
	if best >= 256<<10 {
		t.Errorf("a warm Run allocates %d B for 40 reads, want < 256 KB", best)
	}
	t.Logf("a warm Run allocates %d B", best)
}

// TestRunIsThreadCountInvariant: the reads are spread over Threads workers,
// but the calls, their order, the FLOPs, the identity and which read an
// error names are the same for any worker count (run under -race).
func TestRunIsThreadCountInvariant(t *testing.T) {
	set, err := workload.GenerateSquiggles(workload.SquiggleConfig{
		Name: "threads", Seed: 7, Reads: 10, BasesPerRead: 40,
		SamplesPerBase: 6, NoiseSigma: 0.03, NominalBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	broken := *set
	broken.Squiggles = append([]workload.Squiggle(nil), set.Squiggles...)
	broken.Squiggles[5].Samples = nil
	broken.Squiggles[8].Samples = nil
	for _, decoder := range []Decoder{DecoderGreedy, DecoderBeam} {
		for _, useGPU := range []bool{false, true} {
			var want *Result
			for _, threads := range []int{1, 2, 4, 64} {
				what := fmt.Sprintf("%s decoder, gpu %v, %d threads", decoder, useGPU, threads)
				p := DefaultParams()
				p.Threads, p.Decoder = threads, decoder
				env := func() Env {
					if !useGPU {
						return Env{}
					}
					c := gpu.NewPaperTestbed(nil)
					return Env{Cluster: c, Devices: []int{0}, PID: c.NextPID(), ProcName: "/usr/bin/bonito"}
				}
				got, err := Run(set, p, env())
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if want == nil {
					want = got
				}
				if len(got.Calls) != len(set.Squiggles) || got.RealFLOPs != want.RealFLOPs || got.MeanIdentity != want.MeanIdentity {
					t.Fatalf("%s: %d calls, %d FLOPs, identity %v; 1 thread: %d, %d, %v", what,
						len(got.Calls), got.RealFLOPs, got.MeanIdentity, len(want.Calls), want.RealFLOPs, want.MeanIdentity)
				}
				for i, c := range got.Calls {
					if c.ID != want.Calls[i].ID || c.String() != want.Calls[i].String() {
						t.Fatalf("%s: call %d is %s, with 1 thread %s", what, i, c.ID, want.Calls[i].ID)
					}
				}
				_, err = Run(&broken, p, env())
				if err == nil || !strings.Contains(err.Error(), set.Squiggles[5].ID+":") {
					t.Fatalf("%s: error %v does not name read 5 (%s)", what, err, set.Squiggles[5].ID)
				}
			}
		}
	}
}
