package bonito

import (
	"fmt"
	"math"

	"gyan/internal/sim"
	"gyan/internal/workload"
)

// `bonito train` — supervised training of the basecalling network from
// labeled squiggles. The paper lists training among Bonito's
// functionalities ("training a bonito model (bonito train) ... it also has
// automatic mixed-precision support for accelerating the training tool");
// this file implements the real optimization: softmax cross-entropy over
// per-sample classes, minimized with mini-batch SGD. The feature layer is
// randomly initialized and frozen; the pointwise classifier is learned —
// a faithful miniature of fine-tuning a basecaller head.

// The training schedule, one that converges on the synthetic pore model. The
// loss is convex in the classifier parameters (softmax regression over frozen
// features), so a generous step size is safe.
const (
	trainEpochs       = 20  // passes over the training set
	trainLearningRate = 1.5 // SGD step size
	trainBatchSamples = 128 // mini-batch size in signal samples
	trainSeed         = 1   // weight initialization and shuffling
)

// TrainStats reports the optimization trajectory.
type TrainStats struct {
	// EpochLoss is the mean cross-entropy after each epoch.
	EpochLoss []float64
	// FinalAccuracy is the per-sample classification accuracy on the
	// training set after the last epoch.
	FinalAccuracy float64
	// Samples is the number of labeled samples trained on.
	Samples int
}

// Train learns a basecalling network from labeled squiggles. The returned
// network decodes through the same Forward/Decode path as the constructed
// pretrained model.
func Train(set *workload.SquiggleSet) (*Net, TrainStats, error) {
	if set == nil || len(set.Squiggles) == 0 {
		return nil, TrainStats{}, fmt.Errorf("bonito: empty training set")
	}

	// Flatten the labeled samples.
	var xs []float64
	var ys []uint8
	for _, sq := range set.Squiggles {
		if len(sq.Labels) != len(sq.Samples) {
			return nil, TrainStats{}, fmt.Errorf("bonito: squiggle %s has %d labels for %d samples",
				sq.ID, len(sq.Labels), len(sq.Samples))
		}
		xs = append(xs, sq.Samples...)
		ys = append(ys, sq.Labels...)
	}
	for _, y := range ys {
		if y >= numClasses {
			return nil, TrainStats{}, fmt.Errorf("bonito: label %d out of range", y)
		}
	}

	rng := sim.NewRNG(trainSeed)
	net, err := randomInitNet(rng)
	if err != nil {
		return nil, TrainStats{}, err
	}

	stats := TrainStats{Samples: len(xs)}
	for epoch := 0; epoch < trainEpochs; epoch++ {
		perm := rng.Perm(len(xs))
		var lossSum float64
		for start := 0; start < len(perm); start += trainBatchSamples {
			end := start + trainBatchSamples
			if end > len(perm) {
				end = len(perm)
			}
			lossSum += net.sgdStep(xs, ys, perm[start:end], trainLearningRate)
		}
		stats.EpochLoss = append(stats.EpochLoss, lossSum/float64(len(xs)))
	}

	correct := 0
	for i, x := range xs {
		if net.classify(x) == int(ys[i]) {
			correct++
		}
	}
	stats.FinalAccuracy = float64(correct) / float64(len(xs))
	return net, stats, nil
}

// randomInitNet builds a network with a random (frozen) feature layer and a
// zero classifier.
func randomInitNet(rng *sim.RNG) (*Net, error) {
	feature, err := NewConv1D(1, hiddenChannels, 3)
	if err != nil {
		return nil, err
	}
	for c := 0; c < hiddenChannels; c++ {
		// Center-tap-only random gains, as in the constructed model:
		// zero side taps keep the translocation dip unblurred and make
		// the per-sample training features identical to what the conv
		// computes at decode time.
		feature.Weights.Set(1, c, float32(0.5+rng.Float64()))
		feature.Bias[c] = float32(0.2 * (rng.Float64() - 0.5))
	}
	classifier, err := NewConv1D(hiddenChannels, numClasses, 1)
	if err != nil {
		return nil, err
	}
	return &Net{feature: feature, classifier: classifier}, nil
}

// features computes the frozen feature vector for one scalar sample.
// Feature layers used with training have center-tap-only kernels, so the
// per-sample value equals what the convolution produces at decode time.
func (n *Net) features(x float64) []float32 {
	h := make([]float32, hiddenChannels)
	for c := 0; c < hiddenChannels; c++ {
		h[c] = n.feature.Weights.At(1, c)*float32(x) + n.feature.Bias[c]
	}
	return h
}

// logitsFor computes classifier outputs for a feature vector.
func (n *Net) logitsFor(h []float32) [numClasses]float64 {
	var out [numClasses]float64
	for k := 0; k < numClasses; k++ {
		v := float64(n.classifier.Bias[k])
		for c := 0; c < hiddenChannels; c++ {
			v += float64(n.classifier.Weights.At(c, k)) * float64(h[c])
		}
		out[k] = v
	}
	return out
}

// classify returns the argmax class for one sample.
func (n *Net) classify(x float64) int {
	logits := n.logitsFor(n.features(x))
	best := 0
	for k := 1; k < numClasses; k++ {
		if logits[k] > logits[best] {
			best = k
		}
	}
	return best
}

// sgdStep runs one mini-batch of softmax cross-entropy SGD over the
// classifier parameters and returns the summed loss.
func (n *Net) sgdStep(xs []float64, ys []uint8, batch []int, lr float64) float64 {
	gradW := make([]float64, hiddenChannels*numClasses)
	gradB := make([]float64, numClasses)
	var loss float64

	for _, i := range batch {
		h := n.features(xs[i])
		logits := n.logitsFor(h)
		// Stable softmax.
		maxv := logits[0]
		for k := 1; k < numClasses; k++ {
			if logits[k] > maxv {
				maxv = logits[k]
			}
		}
		var z float64
		var p [numClasses]float64
		for k := 0; k < numClasses; k++ {
			p[k] = math.Exp(logits[k] - maxv)
			z += p[k]
		}
		y := int(ys[i])
		for k := 0; k < numClasses; k++ {
			p[k] /= z
			delta := p[k]
			if k == y {
				delta -= 1
			}
			for c := 0; c < hiddenChannels; c++ {
				gradW[c*numClasses+k] += delta * float64(h[c])
			}
			gradB[k] += delta
		}
		loss += -math.Log(math.Max(p[y], 1e-12))
	}

	scale := lr / float64(len(batch))
	for c := 0; c < hiddenChannels; c++ {
		for k := 0; k < numClasses; k++ {
			w := n.classifier.Weights.At(c, k)
			n.classifier.Weights.Set(c, k, w-float32(scale*gradW[c*numClasses+k]))
		}
	}
	for k := 0; k < numClasses; k++ {
		n.classifier.Bias[k] -= float32(scale * gradB[k])
	}
	return loss
}
