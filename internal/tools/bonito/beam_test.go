package bonito

import (
	"testing"

	"gyan/internal/bioseq"
	"gyan/internal/gpu"
)

// peakedLogits builds logits with a strong winner per timestep.
func peakedLogits(classes []int) Matrix {
	m := NewMatrix(len(classes), numClasses)
	for t, k := range classes {
		for c := 0; c < numClasses; c++ {
			m.Set(t, c, -4)
		}
		m.Set(t, k, 4)
	}
	return m
}

func TestBeamMatchesGreedyOnPeakedLogits(t *testing.T) {
	seq := []int{classA, classA, classBlank, classA, classA, classBlank, classC, classC,
		classBlank, classG, classG, classT, classT}
	logits := peakedLogits(seq)
	greedy, err := Decode(logits)
	if err != nil {
		t.Fatal(err)
	}
	beam, err := DecodeBeam(logits)
	if err != nil {
		t.Fatal(err)
	}
	if string(beam) != string(greedy) {
		t.Fatalf("beam %q != greedy %q on peaked logits", beam, greedy)
	}
	if string(beam) != "AACGT" {
		t.Fatalf("decoded %q, want AACGT", beam)
	}
}

func TestBeamHandlesRepeatedBases(t *testing.T) {
	// CC with a separating blank must stay CC; without it, collapse to C.
	withBlank := peakedLogits([]int{classC, classC, classBlank, classC, classC})
	out, err := DecodeBeam(withBlank)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "CC" {
		t.Fatalf("with blank: %q, want CC", out)
	}
	noBlank := peakedLogits([]int{classC, classC, classC, classC})
	out, err = DecodeBeam(noBlank)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "C" {
		t.Fatalf("without blank: %q, want C", out)
	}
}

func TestBeamIntegratesAmbiguousTimesteps(t *testing.T) {
	// The final timestep is individually won by T by a hair, but
	// G-and-blank together hold more mass: both the "emit G again" and
	// the "emit blank" alignments count toward the label sequence "G",
	// so its summed path probability beats the single "GT" alignment.
	// Greedy argmax emits the trailing T blip; beam search integrates it
	// away.
	logits := peakedLogits([]int{classG, classG, classG, classG})
	logits.Set(3, classG, 1.2)
	logits.Set(3, classT, 1.3)
	logits.Set(3, classBlank, 1.25)
	greedy, err := Decode(logits)
	if err != nil {
		t.Fatal(err)
	}
	if string(greedy) != "GT" {
		t.Fatalf("greedy decoded %q, want the blip emitted as GT", greedy)
	}
	beam, err := DecodeBeam(logits)
	if err != nil {
		t.Fatal(err)
	}
	if string(beam) != "G" {
		t.Fatalf("beam decoded %q, want the blip integrated to G", beam)
	}
}

func TestBeamOnRealSquiggles(t *testing.T) {
	set := smallSet(t)
	net, err := NewPretrained()
	if err != nil {
		t.Fatal(err)
	}
	for _, sq := range set.Squiggles[:5] {
		greedyCall, _, err := net.Basecall(sq)
		if err != nil {
			t.Fatal(err)
		}
		logits, _, err := net.Forward(sq.Samples)
		if err != nil {
			t.Fatal(err)
		}
		beamCall, err := DecodeBeam(logits)
		if err != nil {
			t.Fatal(err)
		}
		idGreedy := bioseq.Identity(greedyCall.Bases, sq.Truth.Bases)
		idBeam := bioseq.Identity(beamCall, sq.Truth.Bases)
		// Beam search is the exact MAP decoder for the CTC model, but
		// this repository's greedy path additionally applies the
		// dwell-prior blip repair (the synthetic channel guarantees
		// dwell >= 2, which CTC's iid assumption cannot express), so
		// greedy may lead on this signal model. Both must stay high.
		if idBeam < 0.92 {
			t.Errorf("%s: beam identity %.4f (greedy %.4f)", sq.ID, idBeam, idGreedy)
		}
		if idGreedy < 0.98 {
			t.Errorf("%s: greedy identity %.4f", sq.ID, idGreedy)
		}
	}
}

func TestBeamValidation(t *testing.T) {
	if _, err := DecodeBeam(NewMatrix(2, 3)); err == nil {
		t.Error("wrong class count accepted")
	}
}

func TestRunWithBeamDecoder(t *testing.T) {
	set := smallSet(t)
	p := DefaultParams()
	p.Decoder = DecoderBeam
	res, err := Run(set, p, gpu.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanIdentity < 0.95 {
		t.Errorf("beam-decoded mean identity %.4f", res.MeanIdentity)
	}
	p.Decoder = "viterbi"
	if _, err := Run(set, p, gpu.Env{}); err == nil {
		t.Error("unknown decoder accepted")
	}
}
