package bonito

import (
	"errors"
	"slices"
	"sync"

	"gyan/internal/bioseq"
	"gyan/internal/workload"
)

// Class layout of the network output: four bases plus the CTC blank.
const (
	classA = iota
	classC
	classG
	classT
	classBlank
	numClasses
)

// hiddenChannels is the width of the feature layer.
const hiddenChannels = 8

// Net is the basecalling network: a feature convolution followed by a
// pointwise classification convolution, decoded with CTC greedy decoding.
//
// Bonito downloads pre-trained models (`bonito download`); this
// reproduction constructs the weights analytically instead. The classifier
// scores class k for sample x as 2*L_k*x - L_k^2, which is the
// nearest-pore-level rule (argmax_k -(x - L_k)^2) expressed linearly —
// a matched filter for the squiggle model in the workload package.
type Net struct {
	feature    *Conv1D
	classifier *Conv1D
	// scratch keeps the *workspace of finished basecalls for the next.
	scratch sync.Pool
}

// NewPretrained constructs the "dna_r9.4.1"-style model used by all
// experiments.
func NewPretrained() (*Net, error) {
	feature, err := NewConv1D(1, hiddenChannels, 3)
	if err != nil {
		return nil, err
	}
	// Feature channels are scaled copies of the center tap: channel c
	// computes a_c*x + b_c. Side taps stay zero so the translocation dip
	// between bases is not blurred away.
	for c := 0; c < hiddenChannels; c++ {
		a := 1 + 0.1*float32(c)
		feature.Weights.Set(0*feature.Width+1, c, a) // center tap of input channel 0
		feature.Bias[c] = 0.05 * float32(c)
	}

	classifier, err := NewConv1D(hiddenChannels, numClasses, 1)
	if err != nil {
		return nil, err
	}
	// Recover x from channel 0 (a=1, b=0) and synthesize the matched
	// filter on it; the remaining feature channels carry zero classifier
	// weight, so they exercise the GEMM without changing the argmax.
	levels := [numClasses]float64{
		classA:     workload.PoreLevels[0],
		classC:     workload.PoreLevels[1],
		classG:     workload.PoreLevels[2],
		classT:     workload.PoreLevels[3],
		classBlank: workload.BoundaryLevel,
	}
	// logitGain sharpens the matched filter. The argmax (and therefore
	// greedy decoding) is invariant to this positive scale; it exists so
	// the softmax is as confident as a cross-entropy-trained network's,
	// which the CTC beam search integrates over. Without it the per-step
	// distributions are nearly flat and path-probability decoding
	// collapses toward short outputs.
	const logitGain = 50
	for k := 0; k < numClasses; k++ {
		l := float32(levels[k])
		classifier.Weights.Set(0, k, logitGain*2*l)
		classifier.Bias[k] = logitGain * -l * l
	}
	return &Net{feature: feature, classifier: classifier}, nil
}

// flopsPerStep is the work of both layers at one timestep, two FLOPs a
// multiply-add: what the GEMMs the cost model bills count.
const flopsPerStep = 2 * (3*hiddenChannels + hiddenChannels*numClasses)

// weights are the two layers in the kernel's layout: tap w of feature channel
// c at f[c][w], the weight of feature c in class k at k[k][c].
type weights struct {
	f  [hiddenChannels][3]float32
	fb [hiddenChannels]float32
	k  [numClasses][hiddenChannels]float32
	kb [numClasses]float32
}

// pack copies the layers into the kernel's layout. It runs per call (per
// worker in basecallAll), not once per Net: Train updates the classifier in
// place after construction.
func (n *Net) pack() weights {
	var w weights
	for j, v := range n.feature.Weights.Data { // row tap, column c
		w.f[j%hiddenChannels][j/hiddenChannels] = v
	}
	for j, v := range n.classifier.Weights.Data { // row c, column k
		w.k[j%numClasses][j/numClasses] = v
	}
	copy(w.fb[:], n.feature.Bias)
	copy(w.kb[:], n.classifier.Bias)
	return w
}

// run is the network over one read, a timestep at a time: x is the signal
// with a zero of padding at each end, so timestep i reads x[i:i+3]. Every
// feature sum and logit is the float32 sum from zero, in ascending k, of its
// products, each rounded before it is added, then plus its bias: the operation
// order of the im2col + GEMM oracle in nn_test.go, so every logit is
// bit-identical to it (that GEMM skips zero inputs, and with finite weights
// their ±0 products cannot change a sum that starts at +0). The thirteen sums
// are independent chains held in registers. Per timestep run stores the
// logits if logits is not nil, else the index of their first maximum.
func (w *weights) run(x, logits []float32, classes []int32) {
	for i := 0; i+2 < len(x); i++ {
		a, b, c := x[i], x[i+1], x[i+2]
		h0 := 0 + float32(a*w.f[0][0]) + float32(b*w.f[0][1]) + float32(c*w.f[0][2]) + w.fb[0]
		h1 := 0 + float32(a*w.f[1][0]) + float32(b*w.f[1][1]) + float32(c*w.f[1][2]) + w.fb[1]
		h2 := 0 + float32(a*w.f[2][0]) + float32(b*w.f[2][1]) + float32(c*w.f[2][2]) + w.fb[2]
		h3 := 0 + float32(a*w.f[3][0]) + float32(b*w.f[3][1]) + float32(c*w.f[3][2]) + w.fb[3]
		h4 := 0 + float32(a*w.f[4][0]) + float32(b*w.f[4][1]) + float32(c*w.f[4][2]) + w.fb[4]
		h5 := 0 + float32(a*w.f[5][0]) + float32(b*w.f[5][1]) + float32(c*w.f[5][2]) + w.fb[5]
		h6 := 0 + float32(a*w.f[6][0]) + float32(b*w.f[6][1]) + float32(c*w.f[6][2]) + w.fb[6]
		h7 := 0 + float32(a*w.f[7][0]) + float32(b*w.f[7][1]) + float32(c*w.f[7][2]) + w.fb[7]
		k := &w.k
		l0 := 0 + float32(h0*k[0][0]) + float32(h1*k[0][1]) + float32(h2*k[0][2]) + float32(h3*k[0][3]) +
			float32(h4*k[0][4]) + float32(h5*k[0][5]) + float32(h6*k[0][6]) + float32(h7*k[0][7]) + w.kb[0]
		l1 := 0 + float32(h0*k[1][0]) + float32(h1*k[1][1]) + float32(h2*k[1][2]) + float32(h3*k[1][3]) +
			float32(h4*k[1][4]) + float32(h5*k[1][5]) + float32(h6*k[1][6]) + float32(h7*k[1][7]) + w.kb[1]
		l2 := 0 + float32(h0*k[2][0]) + float32(h1*k[2][1]) + float32(h2*k[2][2]) + float32(h3*k[2][3]) +
			float32(h4*k[2][4]) + float32(h5*k[2][5]) + float32(h6*k[2][6]) + float32(h7*k[2][7]) + w.kb[2]
		l3 := 0 + float32(h0*k[3][0]) + float32(h1*k[3][1]) + float32(h2*k[3][2]) + float32(h3*k[3][3]) +
			float32(h4*k[3][4]) + float32(h5*k[3][5]) + float32(h6*k[3][6]) + float32(h7*k[3][7]) + w.kb[3]
		l4 := 0 + float32(h0*k[4][0]) + float32(h1*k[4][1]) + float32(h2*k[4][2]) + float32(h3*k[4][3]) +
			float32(h4*k[4][4]) + float32(h5*k[4][5]) + float32(h6*k[4][6]) + float32(h7*k[4][7]) + w.kb[4]
		if logits != nil {
			out := logits[i*numClasses:][:numClasses]
			out[0], out[1], out[2], out[3], out[4] = l0, l1, l2, l3, l4
			continue
		}
		best, top := int32(classA), l0
		if l1 > top {
			best, top = classC, l1
		}
		if l2 > top {
			best, top = classG, l2
		}
		if l3 > top {
			best, top = classT, l3
		}
		if l4 > top {
			best = classBlank
		}
		classes[i] = best
	}
}

// workspace is the memory a basecall works in: the padded float32 signal, the
// per-timestep classes and the collapsed bases. Nothing a basecall returns
// points into it, so it goes back to Net.scratch, and a worker decoding a run
// of reads borrows it once, not per read.
type workspace struct {
	x       []float32
	classes []int32
	bases   []byte
}

// borrow takes a workspace from n.scratch; give it back with Put.
func (n *Net) borrow() *workspace {
	if ws, ok := n.scratch.Get().(*workspace); ok {
		return ws
	}
	return new(workspace)
}

// load writes samples into the workspace as run reads them and returns the
// padded signal, growing the workspace if the read is longer than any before.
func (ws *workspace) load(samples []float64) []float32 {
	if t := len(samples); len(ws.classes) < t {
		t += t / 8 // headroom: the next read may be a little longer
		ws.x, ws.classes, ws.bases = make([]float32, t+2), make([]int32, t), make([]byte, t)
	}
	x := ws.x[:len(samples)+2]
	x[0], x[len(x)-1] = 0, 0
	for i, s := range samples {
		x[i+1] = float32(s)
	}
	return x
}

// Forward runs the network over one squiggle and returns the per-timestep
// class logits (T x numClasses) and the FLOPs spent.
func (n *Net) Forward(samples []float64) (Matrix, int64, error) {
	if len(samples) == 0 {
		return Matrix{}, 0, errEmptySignal
	}
	ws := n.borrow()
	defer n.scratch.Put(ws)
	logits := NewMatrix(len(samples), numClasses)
	w := n.pack()
	w.run(ws.load(samples), logits.Data, nil)
	return logits, flopsPerStep * int64(len(samples)), nil
}

var errEmptySignal = errors.New("bonito: empty signal")

// collapse finishes CTC greedy decoding of the per-timestep argmax classes in
// one pass: repair of isolated misclassifications, collapse of consecutive
// repeats, and blank removal. A non-blank timestep whose class differs from
// the (repaired) one before it but equals the one after it is a noise tail
// inside a plateau, and collapsing would otherwise turn it into an insertion
// (L L X L -> "L X L"), so it takes the class before it. Blank timesteps are
// never rewritten: the single-sample translocation blank is what separates
// repeated bases. Carrying the repaired class is what a repair pass over
// classes followed by a collapse pass computes, alternating blip runs (A C A
// C A) included. The bases go into dst's array, grown to len(classes) if it
// is shorter; classes is not written. The pass is collapseMasks where the
// CPU has AVX2, else collapseGo; both decode the same bases.
func collapse(dst []byte, classes []int32) []byte {
	out := slices.Grow(dst[:0], len(classes))[:len(classes)]
	return out[:collapseInto(out, classes)]
}

// collapseGo is collapse a timestep at a time: it writes the bases into out
// and returns their count.
func collapseGo(out []byte, classes []int32) int {
	n := 0
	prev := int32(-1)
	for t, c := range classes {
		if c != prev && c != classBlank {
			if t+1 < len(classes) && classes[t+1] == prev {
				c = prev
			} else {
				out[n] = "ACGT"[c]
				n++
			}
		}
		prev = c
	}
	return n
}

// Basecall runs the full pipeline over one squiggle: the network with the
// argmax taken in the same pass, then collapse. One *Net serves concurrent
// callers.
func (n *Net) Basecall(sq workload.Squiggle) (bioseq.Seq, int64, error) {
	ws := n.borrow()
	defer n.scratch.Put(ws)
	w := n.pack()
	return basecallIn(&w, ws, sq)
}

// basecallIn is Basecall with the weights w packed and in ws.
func basecallIn(w *weights, ws *workspace, sq workload.Squiggle) (bioseq.Seq, int64, error) {
	t := len(sq.Samples)
	if t == 0 {
		return bioseq.Seq{}, 0, errEmptySignal
	}
	w.classify(ws.load(sq.Samples), ws.classes[:t])
	bases := slices.Clone(collapse(ws.bases, ws.classes[:t]))
	return bioseq.Seq{ID: sq.ID + "_called", Bases: bases}, flopsPerStep * int64(t), nil
}
