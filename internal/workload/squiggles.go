package workload

import (
	"fmt"

	"gyan/internal/bioseq"
	"gyan/internal/sim"
)

// Nanopore signal model. A sequencing pore holds each nucleotide at a
// characteristic current level for several samples, with a brief
// translocation dip between bases. The levels are far enough apart that a
// matched-filter CNN can classify samples, and the dip serves as the CTC
// "blank" separating repeated identical bases — the same structural role the
// blank plays in Bonito's CTC decoder.

// Current levels per base (normalized picoamps). Index with BaseIndex.
var PoreLevels = [4]float64{0.20, 0.40, 0.60, 0.80}

// BoundaryLevel is the translocation dip emitted between consecutive bases.
const BoundaryLevel = 0.0

// BaseIndex maps a nucleotide to its pore-level index.
func BaseIndex(b byte) (int, error) {
	switch b {
	case 'A':
		return 0, nil
	case 'C':
		return 1, nil
	case 'G':
		return 2, nil
	case 'T':
		return 3, nil
	}
	return 0, fmt.Errorf("workload: no pore level for base %q", b)
}

// Squiggle is one raw nanopore signal trace together with the ground-truth
// sequence it encodes (the truth is available because we synthesized it;
// real fast5 files carry only the signal).
type Squiggle struct {
	ID      string
	Samples []float64
	Truth   bioseq.Seq
	// Labels holds the per-sample ground-truth class (0-3 = A,C,G,T;
	// 4 = translocation boundary/blank). Basecaller training consumes
	// these, playing the role of the aligned training labels in Bonito's
	// hdf5 training files.
	Labels []uint8
}

// LabelBlank is the Labels value for boundary (blank) samples.
const LabelBlank uint8 = 4

// SquiggleConfig parameterizes the signal generator.
type SquiggleConfig struct {
	Name string
	Seed uint64
	// Reads is the number of traces; BasesPerRead the truth length each.
	Reads, BasesPerRead int
	// SamplesPerBase is the dwell length of each base's level plateau.
	SamplesPerBase int
	// NoiseSigma is the Gaussian noise added to every sample.
	NoiseSigma float64
	// NominalBytes is the real-world fast5 dataset size modeled.
	NominalBytes int64
}

// Validate reports configuration errors.
func (c SquiggleConfig) Validate() error {
	switch {
	case c.Reads <= 0:
		return fmt.Errorf("workload: Reads %d", c.Reads)
	case c.BasesPerRead <= 0:
		return fmt.Errorf("workload: BasesPerRead %d", c.BasesPerRead)
	case c.SamplesPerBase < 2:
		return fmt.Errorf("workload: SamplesPerBase %d (need >= 2)", c.SamplesPerBase)
	case c.NoiseSigma < 0 || c.NoiseSigma > 0.08:
		return fmt.Errorf("workload: NoiseSigma %.3f outside decodable range [0, 0.08]", c.NoiseSigma)
	}
	return nil
}

// SquiggleSet is a basecalling workload.
type SquiggleSet struct {
	Name         string
	NominalBytes int64
	Squiggles    []Squiggle
}

// GenerateSquiggles synthesizes a deterministic squiggle set.
func GenerateSquiggles(cfg SquiggleConfig) (*SquiggleSet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)
	set := &SquiggleSet{Name: cfg.Name, NominalBytes: cfg.NominalBytes}
	for i := 0; i < cfg.Reads; i++ {
		truth := randomSeq(rng, fmt.Sprintf("%s_read_%d", cfg.Name, i), cfg.BasesPerRead)
		set.Squiggles = append(set.Squiggles, synthesize(rng, truth, cfg))
	}
	return set, nil
}

func synthesize(rng *sim.RNG, truth bioseq.Seq, cfg SquiggleConfig) Squiggle {
	samples := make([]float64, 0, len(truth.Bases)*(cfg.SamplesPerBase+1))
	labels := make([]uint8, 0, cap(samples))
	for _, b := range truth.Bases {
		idx, _ := BaseIndex(b)
		level := PoreLevels[idx]
		// Dwell-time jitter: plateau length varies by up to +-1 sample.
		dwell := cfg.SamplesPerBase + rng.Intn(3) - 1
		if dwell < 2 {
			dwell = 2
		}
		for s := 0; s < dwell; s++ {
			samples = append(samples, level+cfg.NoiseSigma*rng.NormFloat64())
			labels = append(labels, uint8(idx))
		}
		// Translocation dip between bases.
		samples = append(samples, BoundaryLevel+cfg.NoiseSigma*rng.NormFloat64())
		labels = append(labels, LabelBlank)
	}
	return Squiggle{ID: truth.ID, Samples: samples, Truth: truth, Labels: labels}
}

// AcinetobacterPittii returns the stand-in for the paper's 1.5 GB
// Acinetobacter_pittii raw fast5 dataset (the smaller Bonito workload,
// whose CPU basecalling run exceeded 210 hours).
func AcinetobacterPittii(seed uint64) (*SquiggleSet, error) {
	return GenerateSquiggles(SquiggleConfig{
		Name:           "acinetobacter_pittii",
		Seed:           seed,
		Reads:          40,
		BasesPerRead:   400,
		SamplesPerBase: 6,
		NoiseSigma:     0.03,
		NominalBytes:   1536 << 20, // 1.5 GB
	})
}

// KlebsiellaPneumoniae returns the stand-in for the paper's 5.2 GB
// Klebsiella_pneumoniae_KSB2 raw fast5 dataset (the larger Bonito workload,
// approximated in the paper to need >850 CPU-hours).
func KlebsiellaPneumoniae(seed uint64) (*SquiggleSet, error) {
	return GenerateSquiggles(SquiggleConfig{
		Name:           "klebsiella_pneumoniae_ksb2",
		Seed:           seed,
		Reads:          120,
		BasesPerRead:   450,
		SamplesPerBase: 6,
		NoiseSigma:     0.03,
		NominalBytes:   5324 << 20, // 5.2 GB
	})
}
