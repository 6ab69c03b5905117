package bioseq

import (
	"bytes"
	"sort"
)

// SetStats summarizes a sequence collection — the numbers assembly tooling
// conventionally reports (read counts, length distribution, N50, GC).
type SetStats struct {
	// Count is the number of sequences; TotalBases their summed length.
	Count      int
	TotalBases int64
	// MinLen, MaxLen and MeanLen describe the length distribution.
	MinLen, MaxLen int
	MeanLen        float64
	// N50 is the length L such that sequences of length >= L cover at
	// least half the total bases.
	N50 int
	// GC is the overall fraction of G and C bases.
	GC float64
}

// gcCount returns the number of G and C bytes in bases: two passes of the
// standard library's vectorised byte count instead of one branch per base.
func gcCount(bases []byte) int {
	return bytes.Count(bases, []byte{'G'}) + bytes.Count(bases, []byte{'C'})
}

// Stats computes summary statistics. An empty collection yields the zero
// value.
func Stats(seqs []Seq) SetStats {
	if len(seqs) == 0 {
		return SetStats{}
	}
	st := SetStats{Count: len(seqs), MinLen: seqs[0].Len(), MaxLen: seqs[0].Len()}
	lengths := make([]int, 0, len(seqs))
	var gc int64
	for _, s := range seqs {
		n := s.Len()
		lengths = append(lengths, n)
		st.TotalBases += int64(n)
		if n < st.MinLen {
			st.MinLen = n
		}
		if n > st.MaxLen {
			st.MaxLen = n
		}
		gc += int64(gcCount(s.Bases))
	}
	st.MeanLen = float64(st.TotalBases) / float64(st.Count)
	if st.TotalBases > 0 {
		st.GC = float64(gc) / float64(st.TotalBases)
	}

	// N50: walk lengths from longest, stop when half the bases are
	// covered.
	sort.Sort(sort.Reverse(sort.IntSlice(lengths)))
	var acc int64
	half := (st.TotalBases + 1) / 2
	for _, n := range lengths {
		acc += int64(n)
		if acc >= half {
			st.N50 = n
			break
		}
	}
	return st
}
