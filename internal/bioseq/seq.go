// Package bioseq provides the sequence primitives shared by the simulated
// bioinformatics tools: DNA sequences, read-set statistics, and the edit
// distance behind every identity score the tools report.
package bioseq

import "fmt"

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
