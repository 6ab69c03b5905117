package bioseq

import "bytes"

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

// gcCountPair returns the number of G and C bytes in bases: two passes of the
// standard library's vectorised byte count instead of one branch per base.
// gcCount runs it where there is no one-pass count.
func gcCountPair(bases []byte) int {
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
		st.N50 = n50(lengths, (st.TotalBases+1)/2)
	}
	return st
}

// n50 returns the length L at which a walk down lengths from the longest
// first covers half bases (half > 0, at most their sum): the one length with
// less than half in the lengths above it and at least half in those at or
// above it. It finds L by a weighted quickselect, reordering lengths: each
// round splits the lengths left around a pivot, three ways, and keeps the
// side that holds L. Expected O(len(lengths)).
func n50(lengths []int, half int64) int {
	var above int64 // the sum of the lengths dropped for being above L
	for {
		// Median of three: the first, middle and last lengths.
		a, b, c := lengths[0], lengths[len(lengths)/2], lengths[len(lengths)-1]
		pivot := max(min(a, b), min(max(a, b), c))
		// Dutch flag, longest first: [0, gt) above the pivot, [gt, i) equal
		// to it, (lt, end) below it.
		gt, i, lt := 0, 0, len(lengths)-1
		var sumAbove, sumEqual int64
		for i <= lt {
			switch n := lengths[i]; {
			case n > pivot:
				sumAbove += int64(n)
				lengths[gt], lengths[i] = n, lengths[gt]
				gt++
				i++
			case n < pivot:
				lengths[i], lengths[lt] = lengths[lt], n
				lt--
			default:
				sumEqual += int64(n)
				i++
			}
		}
		switch {
		case above+sumAbove >= half:
			lengths = lengths[:gt]
		case above+sumAbove+sumEqual >= half:
			return pivot
		default:
			above += sumAbove + sumEqual
			lengths = lengths[i:]
		}
	}
}
