package bioseq

// Pairwise alignment utilities. Racon's consensus engine aligns reads to the
// backbone before POA, and the test suite uses alignment identity as the
// oracle for "did polishing improve the draft".
//
// Identity scores every bonito read and every racon window, so EditDistance
// is a bit-vector kernel (64 DP cells a word operation); the cell-by-cell
// recurrence lives on in align_test.go as the oracle a fuzzer holds it to.

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
// any lengths and contents. It is Myers' bit-vector algorithm in Hyyrö's
// global-distance form: the shorter input is the pattern, one column of the
// DP matrix is held as vertical +1/-1 delta bits in ceil(m/64) words, and
// each text byte advances every word with a constant number of word
// operations. The deltas encode the same matrix the textbook recurrence
// fills, so the result is exact, not a bound; memory is the delta words
// plus one match mask per distinct pattern byte.
func EditDistance(a, b []byte) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	m := len(b)
	if m == 0 {
		return len(a)
	}
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
