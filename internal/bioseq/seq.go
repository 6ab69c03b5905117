// Package bioseq provides the sequence primitives shared by the simulated
// bioinformatics tools: DNA sequences, FASTA/FASTQ encoding, and pairwise
// alignment used both inside Racon's consensus engine and in test oracles.
package bioseq

import (
	"fmt"
	"strings"
)

// Alphabet is the canonical DNA alphabet. All generated and parsed sequences
// use upper-case bases.
const Alphabet = "ACGT"

// Seq is one named nucleotide sequence.
type Seq struct {
	// ID is the record identifier (FASTA header without '>').
	ID string
	// Bases holds upper-case nucleotides from Alphabet.
	Bases []byte
}

// Len returns the sequence length.
func (s Seq) Len() int { return len(s.Bases) }

// String returns the bases as a string.
func (s Seq) String() string { return string(s.Bases) }

// Validate checks that every base is in the DNA alphabet.
func (s Seq) Validate() error {
	for i, b := range s.Bases {
		if !validBase(b) {
			return fmt.Errorf("bioseq: sequence %q has invalid base %q at position %d", s.ID, b, i)
		}
	}
	return nil
}

func validBase(b byte) bool {
	switch b {
	case 'A', 'C', 'G', 'T':
		return true
	}
	return false
}

// complement maps each base to its Watson-Crick complement.
func complement(b byte) byte {
	switch b {
	case 'A':
		return 'T'
	case 'T':
		return 'A'
	case 'C':
		return 'G'
	case 'G':
		return 'C'
	}
	return b
}

// ReverseComplement returns a new sequence that is the reverse complement of
// s, with "_rc" appended to the ID.
func (s Seq) ReverseComplement() Seq {
	out := make([]byte, len(s.Bases))
	for i, b := range s.Bases {
		out[len(s.Bases)-1-i] = complement(b)
	}
	return Seq{ID: s.ID + "_rc", Bases: out}
}

// GCContent returns the fraction of G and C bases, or 0 for an empty
// sequence.
func (s Seq) GCContent() float64 {
	if len(s.Bases) == 0 {
		return 0
	}
	return float64(gcCount(s.Bases)) / float64(len(s.Bases))
}

// Subseq returns the half-open slice [from, to) of the sequence as a new
// record. It panics on out-of-range bounds, mirroring slice semantics.
func (s Seq) Subseq(from, to int) Seq {
	return Seq{
		ID:    fmt.Sprintf("%s:%d-%d", s.ID, from, to),
		Bases: append([]byte(nil), s.Bases[from:to]...),
	}
}

// FromString builds a validated sequence from a string, rejecting characters
// outside the alphabet (case-insensitive; bases are upper-cased).
func FromString(id, bases string) (Seq, error) {
	s := Seq{ID: id, Bases: []byte(strings.ToUpper(bases))}
	if err := s.Validate(); err != nil {
		return Seq{}, err
	}
	return s, nil
}
