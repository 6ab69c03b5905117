package bonito

import (
	"fmt"
	"math"
	"sort"
)

// CTC prefix beam search — the decoder production basecallers use instead
// of greedy argmax. It tracks, per candidate prefix, the probability mass of
// paths ending in blank vs ending in the prefix's last symbol, so repeated
// bases and low-confidence stretches are resolved from full path
// probabilities rather than single-timestep winners.

// beamWidth is the number of prefixes kept per timestep, ample for a
// 5-class alphabet.
const beamWidth = 8

// beamState carries log-probability mass for one prefix.
type beamState struct {
	// pb is the log probability of paths ending in blank; pnb of paths
	// ending in the prefix's final symbol.
	pb, pnb float64
}

func (s beamState) total() float64 { return logAdd(s.pb, s.pnb) }

var logZero = math.Inf(-1)

func logAdd(a, b float64) float64 {
	if a == logZero {
		return b
	}
	if b == logZero {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// DecodeBeam runs CTC prefix beam search over the logits and returns the
// most probable base sequence.
func DecodeBeam(logits Matrix) ([]byte, error) {
	if logits.Cols != numClasses {
		return nil, fmt.Errorf("bonito: logits have %d classes, want %d", logits.Cols, numClasses)
	}
	bases := [4]byte{'A', 'C', 'G', 'T'}

	beams := map[string]beamState{"": {pb: 0, pnb: logZero}}
	logProbs := make([]float64, numClasses)
	for t := 0; t < logits.Rows; t++ {
		// Log-softmax of the timestep's logits.
		maxv := logits.At(t, 0)
		for k := 1; k < numClasses; k++ {
			if v := logits.At(t, k); v > maxv {
				maxv = v
			}
		}
		var z float64
		for k := 0; k < numClasses; k++ {
			z += math.Exp(float64(logits.At(t, k) - maxv))
		}
		logZ := math.Log(z) + float64(maxv)
		for k := 0; k < numClasses; k++ {
			logProbs[k] = float64(logits.At(t, k)) - logZ
		}

		next := make(map[string]beamState, len(beams)*numClasses)
		upd := func(prefix string, pb, pnb float64) {
			s, ok := next[prefix]
			if !ok {
				s = beamState{pb: logZero, pnb: logZero}
			}
			s.pb = logAdd(s.pb, pb)
			s.pnb = logAdd(s.pnb, pnb)
			next[prefix] = s
		}
		for prefix, s := range beams {
			// Extend with blank: prefix unchanged, mass moves to pb.
			upd(prefix, logProbs[classBlank]+s.total(), logZero)
			for ci, b := range bases {
				lp := logProbs[ci]
				if n := len(prefix); n > 0 && prefix[n-1] == b {
					// Repeating the final symbol: only paths that
					// just emitted it extend in place (pnb); paths
					// ending in blank start a NEW occurrence.
					upd(prefix, logZero, lp+s.pnb)
					upd(prefix+string(b), logZero, lp+s.pb)
				} else {
					upd(prefix+string(b), logZero, lp+s.total())
				}
			}
		}
		// Prune to the beam width.
		type scored struct {
			prefix string
			state  beamState
		}
		all := make([]scored, 0, len(next))
		for p, s := range next {
			all = append(all, scored{p, s})
		}
		sort.Slice(all, func(i, j int) bool {
			ti, tj := all[i].state.total(), all[j].state.total()
			if ti != tj {
				return ti > tj
			}
			return all[i].prefix < all[j].prefix
		})
		if len(all) > beamWidth {
			all = all[:beamWidth]
		}
		beams = make(map[string]beamState, len(all))
		for _, s := range all {
			beams[s.prefix] = s.state
		}
	}

	best, bestLP := "", logZero
	for p, s := range beams {
		if lp := s.total(); lp > bestLP || (lp == bestLP && p < best) {
			best, bestLP = p, lp
		}
	}
	return []byte(best), nil
}
