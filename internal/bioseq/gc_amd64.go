package bioseq

import "gyan/internal/cpuid"

// gcCountAVX2 is gcCountPair in one pass, 32 bases per AVX2 instruction.
//
//go:noescape
func gcCountAVX2(bases []byte) int

// useLanes is whether gcCount runs gcCountAVX2, decided once per process.
var useLanes = cpuid.AVX2

// gcCount returns the number of G and C bytes in bases.
func gcCount(bases []byte) int {
	if useLanes {
		return gcCountAVX2(bases)
	}
	return gcCountPair(bases)
}
