// Package workload generates the synthetic datasets that stand in for the
// paper's evaluation inputs.
//
// The paper uses three multi-gigabyte downloads: the 17 GB Alzheimer IsoSeq
// NFL read set (Racon), and the Acinetobacter_pittii (1.5 GB) and
// Klebsiella_pneumoniae_KSB2 (5.2 GB) raw fast5 sets (Bonito). Shipping or
// downloading those is impossible here, so each generator produces a
// deterministic synthetic equivalent that exercises the same code paths:
// long reads with PacBio-like error profiles for consensus polishing, and
// nanopore-style signal traces ("squiggles") for basecalling.
//
// Every set carries two sizes: the actual synthetic payload (small, so real
// computation stays laptop-scale) and NominalBytes, the size of the
// real-world dataset being modeled. The tools' timing models scale their
// simulated kernel work and PCIe traffic by NominalBytes, which is how the
// figures reproduce the paper's magnitudes, while correctness runs on the
// real synthetic payload.
package workload

import (
	"fmt"

	"gyan/internal/bioseq"
	"gyan/internal/sim"
)

// LongReadConfig parameterizes the PacBio-like read simulator.
type LongReadConfig struct {
	// Name labels the resulting set.
	Name string
	// Seed drives all randomness; equal seeds give identical sets.
	Seed uint64
	// RefLen is the reference (ground truth) length in bases.
	RefLen int
	// ReadLen is the mean read length.
	ReadLen int
	// Coverage is the mean sequencing depth; the generator samples
	// Coverage*RefLen/ReadLen reads.
	Coverage int
	// SubRate, InsRate and DelRate are per-base error probabilities.
	// PacBio CLR reads run ~10-15% total error, mostly indels.
	SubRate, InsRate, DelRate float64
	// BackboneErrorRate is the error rate of the draft assembly that
	// Racon polishes (errors remaining after initial assembly).
	BackboneErrorRate float64
	// NominalBytes is the real-world dataset size this set stands in for.
	NominalBytes int64
}

// Validate reports configuration errors.
func (c LongReadConfig) Validate() error {
	switch {
	case c.RefLen <= 0:
		return fmt.Errorf("workload: RefLen %d", c.RefLen)
	case c.ReadLen <= 0 || c.ReadLen > c.RefLen:
		return fmt.Errorf("workload: ReadLen %d with RefLen %d", c.ReadLen, c.RefLen)
	case c.Coverage <= 0:
		return fmt.Errorf("workload: Coverage %d", c.Coverage)
	case c.SubRate < 0 || c.InsRate < 0 || c.DelRate < 0:
		return fmt.Errorf("workload: negative error rate")
	case c.SubRate+c.InsRate+c.DelRate >= 0.9:
		return fmt.Errorf("workload: total error rate %.2f unusably high",
			c.SubRate+c.InsRate+c.DelRate)
	case c.BackboneErrorRate < 0 || c.BackboneErrorRate >= 0.5:
		return fmt.Errorf("workload: backbone error rate %.2f", c.BackboneErrorRate)
	}
	return nil
}

// ReadSet is a complete consensus-polishing workload: a ground-truth
// reference, a noisy draft backbone, and error-bearing reads sampled from
// the truth.
type ReadSet struct {
	Name         string
	NominalBytes int64
	// Reference is the ground truth the reads were sampled from; tests
	// use it as the polishing oracle. Real pipelines do not have it.
	Reference bioseq.Seq
	// Backbone is the draft assembly to polish.
	Backbone bioseq.Seq
	// Reads are the sampled long reads, each annotated with its true
	// start position on the reference in Starts.
	Reads  []bioseq.Seq
	Starts []int
}

// Format is the read set's Galaxy datatype: its reads are sequences.
func (*ReadSet) Format() string { return "fasta" }

// GenerateLongReads builds a deterministic synthetic read set.
func GenerateLongReads(cfg LongReadConfig) (*ReadSet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)
	ref := randomSeq(rng, cfg.Name+"_ref", cfg.RefLen)

	rs := &ReadSet{
		Name:         cfg.Name,
		NominalBytes: cfg.NominalBytes,
		Reference:    ref,
		Backbone:     corrupt(rng, ref, cfg.BackboneErrorRate, cfg.Name+"_draft"),
	}

	n := cfg.Coverage * cfg.RefLen / cfg.ReadLen
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		// Read length jitters +-20% around the mean.
		length := cfg.ReadLen + int(float64(cfg.ReadLen)*0.4*(rng.Float64()-0.5))
		if length < 1 {
			length = 1
		}
		if length > cfg.RefLen {
			length = cfg.RefLen
		}
		start := rng.Intn(cfg.RefLen - length + 1)
		perfect := bioseq.Seq{
			ID:    fmt.Sprintf("%s_read_%d", cfg.Name, i),
			Bases: ref.Bases[start : start+length],
		}
		read := applyErrors(rng, perfect, cfg.SubRate, cfg.InsRate, cfg.DelRate)
		rs.Reads = append(rs.Reads, read)
		rs.Starts = append(rs.Starts, start)
	}
	return rs, nil
}

func randomSeq(rng *sim.RNG, id string, n int) bioseq.Seq {
	b := make([]byte, n)
	for i := range b {
		b[i] = bioseq.Alphabet[rng.Intn(4)]
	}
	return bioseq.Seq{ID: id, Bases: b}
}

// corrupt introduces substitution errors at the given rate, producing the
// draft backbone Racon polishes.
func corrupt(rng *sim.RNG, s bioseq.Seq, rate float64, id string) bioseq.Seq {
	out := append([]byte(nil), s.Bases...)
	for i := range out {
		if rng.Float64() < rate {
			out[i] = otherBase(rng, out[i])
		}
	}
	return bioseq.Seq{ID: id, Bases: out}
}

// applyErrors runs a base-by-base error channel over a perfect read.
func applyErrors(rng *sim.RNG, s bioseq.Seq, sub, ins, del float64) bioseq.Seq {
	out := make([]byte, 0, len(s.Bases)+8)
	for _, b := range s.Bases {
		r := rng.Float64()
		switch {
		case r < del:
			// dropped base
		case r < del+sub:
			out = append(out, otherBase(rng, b))
		case r < del+sub+ins:
			out = append(out, b, bioseq.Alphabet[rng.Intn(4)])
		default:
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		out = append(out, s.Bases[0])
	}
	return bioseq.Seq{ID: s.ID, Bases: out}
}

func otherBase(rng *sim.RNG, b byte) byte {
	for {
		nb := bioseq.Alphabet[rng.Intn(4)]
		if nb != b {
			return nb
		}
	}
}

// AlzheimersNFL returns the stand-in for the paper's "17 GB Alzheimers NFL
// Dataset ... polished sequencing results for the Alzheimer human brain
// transcriptome" used in every Racon experiment. The synthetic payload is a
// 20 kb reference at 30x coverage; NominalBytes records the 17 GB the
// timing model scales to.
func AlzheimersNFL(seed uint64) (*ReadSet, error) {
	return GenerateLongReads(LongReadConfig{
		Name:              "alzheimers_nfl",
		Seed:              seed,
		RefLen:            20000,
		ReadLen:           1000,
		Coverage:          30,
		SubRate:           0.02,
		InsRate:           0.05,
		DelRate:           0.04,
		BackboneErrorRate: 0.05,
		NominalBytes:      17 << 30,
	})
}
