package racon

import (
	"fmt"
	"math/bits"

	"gyan/internal/bioseq"
)

// Read-to-backbone mapping. Real Racon consumes minimap2 overlaps; this
// reimplementation uses the same underlying idea at small scale: index the
// backbone's k-mers, then let each read's k-mers vote for a diagonal
// (backbone position minus read offset). The winning diagonal is the read's
// inferred start position on the backbone.

// Mapping places one read on the backbone.
type Mapping struct {
	// ReadIndex identifies the read in the input slice.
	ReadIndex int
	// Start is the inferred backbone start position.
	Start int
	// Votes is the number of k-mers supporting the diagonal; higher means
	// a more confident placement.
	Votes int
}

// MapStats reports the work done by the mapper, feeding the cost models.
type MapStats struct {
	// KmersIndexed is the number of backbone k-mer positions indexed.
	KmersIndexed int
	// KmersQueried is the number of read k-mers looked up.
	KmersQueried int
	// Unmapped counts reads with no confident placement.
	Unmapped int
}

// DefaultK is the mapper's k-mer length. 13 gives confident unique anchors
// on the synthetic references (4^13 >> reference length) while tolerating
// the ~10% read error rate.
const DefaultK = 13

// minVotes is the minimum diagonal support to accept a placement.
const minVotes = 3

// kmerIndex finds every backbone position of a k-mer without a Go map or a
// slice per k-mer: an open-addressed table of chain heads, the positions of
// one k-mer chained through next.
type kmerIndex struct {
	// head[s] is 1 + the last position indexed whose k-mer probes to slot
	// s, or 0 for an empty slot; the table is a power of two at least twice
	// the number of positions, so a probe always meets an empty slot.
	head []int32
	// next[p] is 1 + the previous position with position p's k-mer, or 0;
	// hash[p] is that k-mer.
	next []int32
	hash []uint64
	// shift keeps the top log2(len(head)) bits of a multiplicative hash.
	shift uint
}

func newKmerIndex(bases []byte, k int) kmerIndex {
	n := max(len(bases)-k+1, 0)
	size := 2
	for size < 2*n {
		size *= 2
	}
	x := kmerIndex{head: make([]int32, size), next: make([]int32, n), hash: make([]uint64, n),
		shift: uint(64 - bits.Len(uint(size-1)))}
	forEachKmer(bases, k, func(pos int, h uint64) {
		s := x.slot(h)
		x.next[pos], x.head[s], x.hash[pos] = x.head[s], int32(pos+1), h
	})
	return x
}

// slot returns the table slot of k-mer h: the one holding its chain, or the
// empty one where its chain would start.
func (x *kmerIndex) slot(h uint64) int {
	mask := len(x.head) - 1
	for s := int((h * 0x9e3779b97f4a7c15) >> x.shift); ; s = (s + 1) & mask {
		if p := x.head[s]; p == 0 || x.hash[p-1] == h {
			return s
		}
	}
}

// MapReads places every read on the backbone. Reads that cannot be placed
// confidently are omitted from the result (and counted in stats).
func MapReads(backbone bioseq.Seq, reads []bioseq.Seq, k int) ([]Mapping, MapStats, error) {
	if k <= 0 || k > 31 {
		return nil, MapStats{}, fmt.Errorf("racon: k-mer length %d out of range", k)
	}
	if backbone.Len() < k {
		return nil, MapStats{}, fmt.Errorf("racon: backbone shorter than k (%d < %d)", backbone.Len(), k)
	}

	index := newKmerIndex(backbone.Bases, k)
	stats := MapStats{KmersIndexed: len(index.next)}

	// votes[d+len(read)] counts the read's k-mers on diagonal d (backbone
	// position minus read offset), which is at least -len(read). One slice
	// serves every read: only the span [lo, hi] a read voted in is scanned,
	// then zeroed for the next.
	var votes []int32
	var out []Mapping
	for ri, read := range reads {
		shift := read.Len()
		votes = grow(votes, backbone.Len()+shift+1)
		lo, hi := len(votes), -1
		forEachKmer(read.Bases, k, func(off int, h uint64) {
			stats.KmersQueried++
			for p := index.head[index.slot(h)]; p != 0; p = index.next[p-1] {
				d := int(p-1) - off + shift
				votes[d]++
				lo, hi = min(lo, d), max(hi, d)
			}
		})
		// Ascending, strictly greater: the smallest diagonal wins a tie.
		bestDiag, bestVotes := 0, 0
		for d := lo; d <= hi; d++ {
			if v := int(votes[d]); v > bestVotes {
				bestDiag, bestVotes = d-shift, v
			}
			votes[d] = 0
		}
		if bestVotes < minVotes {
			stats.Unmapped++
			continue
		}
		start := bestDiag
		if start < 0 {
			start = 0
		}
		if start >= backbone.Len() {
			stats.Unmapped++
			continue
		}
		out = append(out, Mapping{ReadIndex: ri, Start: start, Votes: bestVotes})
	}
	return out, stats, nil
}

// forEachKmer calls fn with every k-mer's 2-bit-packed hash. Assumes a valid
// ACGT sequence (enforced upstream by bioseq validation).
func forEachKmer(bases []byte, k int, fn func(pos int, h uint64)) {
	if len(bases) < k {
		return
	}
	mask := (uint64(1) << (2 * uint(k))) - 1
	var h uint64
	for i, b := range bases {
		h = ((h << 2) | uint64(baseCode(b))) & mask
		if i >= k-1 {
			fn(i-k+1, h)
		}
	}
}

func baseCode(b byte) byte {
	switch b {
	case 'A':
		return 0
	case 'C':
		return 1
	case 'G':
		return 2
	default: // 'T'
		return 3
	}
}
