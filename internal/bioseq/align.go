package bioseq

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Pairwise alignment utilities. Racon's consensus engine aligns reads to the
// backbone before POA, and the test suite uses alignment identity as the
// oracle for "did polishing improve the draft".
//
// Identity scores every bonito read and every racon window, so EditDistance
// has two exact paths: a furthest-reaching-diagonal pass whose cost follows
// the distance (a bonito call is a few edits from its truth), and, where that
// pass would cost more than a share of it, a bit-vector kernel (64 DP cells
// a word operation) whose cost follows the lengths. The cell-by-cell
// recurrence lives on in align_test.go as the oracle a fuzzer holds both
// paths to.

// AlignScores parameterizes the partial-order aligner.
type AlignScores struct {
	Match    int
	Mismatch int
	Gap      int
}

// DefaultScores mirror the unit scores Racon uses for its partial-order
// alignment (match +3, mismatch -5, gap -4 in the original tool; any
// consistent scheme preserves the optimum structure we rely on).
func DefaultScores() AlignScores {
	return AlignScores{Match: 3, Mismatch: -5, Gap: -4}
}

// EditDistance returns the Levenshtein distance between two byte strings of
// any lengths and contents. It first runs furthestReaching, whose cost grows
// with the distance, and when that pass gives up, bitVector, whose cost is
// the same for every pair of the given lengths. Both are exact, and the pass
// allocates nothing.
func EditDistance(a, b []byte) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(b) == 0 {
		return len(a)
	}
	if d, ok := furthestReaching(a, b); ok {
		return d
	}
	return bitVector(a, b)
}

// maxRounds caps the rounds of furthestReaching, so that its two diagonal
// arrays take about a kilobyte each of the stack.
const maxRounds = 128

// diagonalRounds is the number of rounds furthestReaching may run on inputs
// of lengths n >= m >= 1 before it gives up: the largest d whose rounds
// 0..d visit no more than n·⌈m/64⌉/32 diagonal cells ((d+1)², a thirty-second
// of the block steps bitVector takes on the same pair), and at most
// maxRounds. The share is measured: on unrelated 400-base pairs, a pass
// that gives up cost a quarter of bitVector's time at an eighth and a
// twentieth at a thirty-second. Wherever n-m is within it, it is below m, so
// every diagonal in [-d, d] meets the matrix.
func diagonalRounds(n, m int) int {
	cells := float64(n) * float64((m+63)/64) / 32 // no int overflow on 32-bit
	return min(maxRounds, int(math.Sqrt(cells))-1)
}

// furthestReaching is the unit-cost case of the wavefront algorithm (Landau
// and Vishkin 1989; Marco-Sola et al. 2021) for len(a) >= len(b) >= 1. Row i
// indexes a, column j indexes b, and diagonal k holds the cells j-i = k. For
// d = 0, 1, 2, ... it keeps, for each diagonal k in [-d, d], the furthest
// row reachable with d edits: the best of a substitution (row+1 on k), an
// insertion (row+1 from k+1) and a deletion (the same row from k-1) after
// round d-1, then a slide over matching bytes. The distance is the round in
// which diagonal m-n reaches row n, so the pass costs O(n + d²) and
// allocates nothing. It gives up (ok false) when the distance exceeds
// diagonalRounds, and at once when the length difference does.
func furthestReaching(a, b []byte) (int, bool) {
	n, m := len(a), len(b)
	rounds := diagonalRounds(n, m)
	if n-m > rounds || n > math.MaxInt32-8 { // rows are int32
		return 0, false
	}
	// Diagonal k is at index o+k. Round d reads round d-1 on diagonals
	// [-d-1, d+1], two past either end of what that one wrote, where gone
	// stands for no path.
	const o, gone = maxRounds + 2, -1 << 30
	var x, y [2*maxRounds + 5]int32
	prev, cur := &x, &y
	prev[o] = int32(slide(a, b, 0, 0))
	if n == m && int(prev[o]) == n {
		return 0, true
	}
	for d := 1; d <= rounds; d++ {
		prev[o-d], prev[o-d-1], prev[o+d], prev[o+d+1] = gone, gone, gone, gone
		for k := -d; k <= d; k++ {
			i := max(prev[o+k]+1, prev[o+k+1]+1, prev[o+k-1])
			i = min(i, int32(n), int32(m-k))
			cur[o+k] = int32(slide(a, b, int(i), int(i)+k))
		}
		if d >= n-m && int(cur[o+m-n]) == n {
			return d, true
		}
		prev, cur = cur, prev
	}
	return 0, false
}

// slide returns the first row at or after i where a[i] and b[j] differ (j
// moving with i) or either string ends, comparing eight bytes at a time. It
// is small enough for the compiler to inline into the cell loop, which takes
// about a fifth off a cell.
func slide(a, b []byte, i, j int) int {
	for i+8 <= len(a) && j+8 <= len(b) {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[j:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
		i, j = i+8, j+8
	}
	for i < len(a) && j < len(b) && a[i] == b[j] {
		i, j = i+1, j+1
	}
	return i
}

// bitVector is Myers' bit-vector algorithm in Hyyrö's global-distance form,
// for len(a) >= len(b) >= 1: the shorter input is the pattern, one column of
// the DP matrix is held as vertical +1/-1 delta bits in ceil(m/64) words,
// and each text byte advances every word with a constant number of word
// operations. The deltas encode the same matrix the textbook recurrence
// fills, so the result is exact, not a bound; memory is the delta words
// plus one match mask per distinct pattern byte.
func bitVector(a, b []byte) int {
	m := len(b)
	w := (m + 63) / 64
	// row[c] is the mask row of byte c; row 0 stays all-zero and serves
	// every byte the pattern does not contain.
	var row [256]uint16
	rows := 1
	for _, c := range b {
		if row[c] == 0 {
			row[c] = uint16(rows)
			rows++
		}
	}
	buf := make([]uint64, (rows+2)*w)
	peq, pv, mv := buf[:rows*w], buf[rows*w:][:w], buf[(rows+1)*w:][:w]
	for i, c := range b {
		peq[int(row[c])*w+i/64] |= 1 << (i % 64)
	}
	for i := range pv {
		pv[i] = ^uint64(0) // D[i][0] = i: every vertical delta starts at +1
	}
	d, last := m, uint((m-1)%64)
	for _, c := range a {
		eq := peq[int(row[c])*w:][:w]
		// D[0][j] = j: the delta entering the first block is +1.
		hp, hm := uint64(1), uint64(0)
		for k := 0; k < w-1; k++ {
			pv[k], mv[k], hp, hm = advanceBlock(pv[k], mv[k], eq[k], hp, hm, 63)
		}
		pv[w-1], mv[w-1], hp, hm = advanceBlock(pv[w-1], mv[w-1], eq[w-1], hp, hm, last)
		d += int(hp) - int(hm)
	}
	return d
}

// advanceBlock moves one 64-row block of the DP matrix one column to the
// right. pv and mv are the block's vertical +1/-1 deltas, eq its match mask
// for the column's byte, and hp/hm (0 or 1) the horizontal delta entering
// its first row; it returns the new vertical deltas and the horizontal delta
// leaving row top. Carries and shifts only travel upward, so the unused
// high bits of the last block never reach the rows below them.
func advanceBlock(pv, mv, eq, hp, hm uint64, top uint) (uint64, uint64, uint64, uint64) {
	xv := eq | mv
	eq |= hm
	xh := (((eq & pv) + pv) ^ pv) | eq
	ph := mv | ^(xh | pv)
	mh := pv & xh
	hp, hm = ph<<1|hp, mh<<1|hm
	return hm | ^(xv | hp), hp & xv, ph >> top & 1, mh >> top & 1
}

// Identity returns the fraction of matching positions implied by the edit
// distance, relative to the longer sequence. Two equal sequences have
// identity 1; completely dissimilar ones approach 0.
func Identity(a, b []byte) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if n == 0 {
		return 1
	}
	d := EditDistance(a, b)
	return 1 - float64(d)/float64(n)
}
