package bonito

import (
	"fmt"
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
	// scratch keeps the *workspace of finished Basecall calls for the next.
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

// workspace is the memory one read's basecall works in: the float32 signal,
// the hidden activations, the logits and the decoder's per-timestep classes.
// Nothing Basecall returns points into it, so it goes back to Net.scratch
// and a run of reads allocates its activations once, not per read.
type workspace struct {
	x, h, logits []float32
	classes      []int
}

// newWorkspace sizes a workspace for reads of up to t samples.
func (n *Net) newWorkspace(t int) *workspace {
	return &workspace{
		x:       make([]float32, t),
		h:       make([]float32, t*n.feature.OutCh),
		logits:  make([]float32, t*n.classifier.OutCh),
		classes: make([]int, t),
	}
}

// Forward runs the network over one squiggle and returns the per-timestep
// class logits (T x numClasses) and the FLOPs spent.
func (n *Net) Forward(samples []float64) (Matrix, int64, error) {
	return n.forward(samples, n.newWorkspace(len(samples)))
}

// forward is Forward with its activations, the returned logits included, in
// ws.
func (n *Net) forward(samples []float64, ws *workspace) (Matrix, int64, error) {
	t := len(samples)
	if t == 0 {
		return Matrix{}, 0, fmt.Errorf("bonito: empty signal")
	}
	x := Matrix{Rows: t, Cols: 1, Data: ws.x[:t]}
	for i, s := range samples {
		x.Data[i] = float32(s)
	}
	h := Matrix{Rows: t, Cols: n.feature.OutCh, Data: ws.h[:t*n.feature.OutCh]}
	f1, err := n.feature.forward(x, h.Data)
	if err != nil {
		return Matrix{}, 0, err
	}
	logits := Matrix{Rows: t, Cols: n.classifier.OutCh, Data: ws.logits[:t*n.classifier.OutCh]}
	f2, err := n.classifier.forward(h, logits.Data)
	if err != nil {
		return Matrix{}, 0, err
	}
	return logits, f1 + f2, nil
}

// decode performs CTC greedy decoding over the logits: per-timestep argmax,
// repair of isolated misclassifications, collapse of consecutive repeats,
// and blank removal. The per-timestep classes go in the caller's slice, one
// element per row of logits.
func decode(logits Matrix, classes []int) ([]byte, error) {
	if logits.Cols != numClasses {
		return nil, fmt.Errorf("bonito: logits have %d classes, want %d", logits.Cols, numClasses)
	}
	for t := 0; t < logits.Rows; t++ {
		row := logits.Data[t*numClasses:][:numClasses]
		best := 0
		for k, v := range row {
			if v > row[best] {
				best = k
			}
		}
		classes[t] = best
	}
	// Repair isolated non-blank blips inside plateaus: a single timestep
	// whose neighbours agree with each other but not with it is a noise
	// tail, and collapsing would otherwise turn it into an insertion
	// (L L X L -> "L X L"). Blank timesteps are never rewritten — the
	// single-sample translocation blank is what separates repeated bases.
	for t := 1; t+1 < len(classes); t++ {
		if classes[t] != classBlank && classes[t-1] == classes[t+1] && classes[t-1] != classes[t] {
			classes[t] = classes[t-1]
		}
	}
	bases := [numClasses]byte{classA: 'A', classC: 'C', classG: 'G', classT: 'T', classBlank: 0}
	var out []byte
	prev := -1
	for _, c := range classes {
		if c != prev && c != classBlank {
			out = append(out, bases[c])
		}
		prev = c
	}
	return out, nil
}

// Basecall runs the full pipeline over one squiggle.
func (n *Net) Basecall(sq workload.Squiggle) (bioseq.Seq, int64, error) {
	ws, _ := n.scratch.Get().(*workspace)
	if t := len(sq.Samples); ws == nil || len(ws.x) < t {
		ws = n.newWorkspace(t + t/8) // headroom: the next read may be a little longer
	}
	defer n.scratch.Put(ws)
	logits, flops, err := n.forward(sq.Samples, ws)
	if err != nil {
		return bioseq.Seq{}, 0, err
	}
	bases, err := decode(logits, ws.classes[:logits.Rows])
	if err != nil {
		return bioseq.Seq{}, 0, err
	}
	return bioseq.Seq{ID: sq.ID + "_called", Bases: bases}, flops, nil
}
