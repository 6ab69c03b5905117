package bioseq

// Pairwise alignment utilities. Racon's consensus engine aligns reads to the
// backbone before POA, and the test suite uses alignment identity as the
// oracle for "did polishing improve the draft".
//
// Identity scores every bonito read and every racon window, so EditDistance
// is a bit-vector kernel (64 DP cells a word operation); the cell-by-cell
// recurrence lives on in align_test.go as the oracle a fuzzer holds it to.

// AlignScores parameterizes the global aligner.
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

// AlignOp is one column of a pairwise alignment.
type AlignOp byte

// Alignment operation kinds.
const (
	OpMatch  AlignOp = 'M' // bases aligned (may mismatch)
	OpInsert AlignOp = 'I' // base present only in the query
	OpDelete AlignOp = 'D' // base present only in the target
)

// Cigar is a sequence of alignment operations, one per column.
type Cigar []AlignOp

// Global computes a Needleman-Wunsch global alignment of query against
// target and returns the score and per-column operations.
func Global(query, target []byte, sc AlignScores) (int, Cigar) {
	n, m := len(query), len(target)
	// score[i][j]: best score aligning query[:i] with target[:j].
	score := make([][]int, n+1)
	for i := range score {
		score[i] = make([]int, m+1)
	}
	for i := 1; i <= n; i++ {
		score[i][0] = i * sc.Gap
	}
	for j := 1; j <= m; j++ {
		score[0][j] = j * sc.Gap
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			diag := score[i-1][j-1] + sc.Mismatch
			if query[i-1] == target[j-1] {
				diag = score[i-1][j-1] + sc.Match
			}
			up := score[i-1][j] + sc.Gap   // consume query base: insertion
			left := score[i][j-1] + sc.Gap // consume target base: deletion
			best := diag
			if up > best {
				best = up
			}
			if left > best {
				best = left
			}
			score[i][j] = best
		}
	}
	// Traceback.
	var rev Cigar
	i, j := n, m
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0 && score[i][j] == score[i-1][j-1]+matchScore(query[i-1], target[j-1], sc):
			rev = append(rev, OpMatch)
			i--
			j--
		case i > 0 && score[i][j] == score[i-1][j]+sc.Gap:
			rev = append(rev, OpInsert)
			i--
		default:
			rev = append(rev, OpDelete)
			j--
		}
	}
	// Reverse in place.
	for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
		rev[a], rev[b] = rev[b], rev[a]
	}
	return score[n][m], rev
}

func matchScore(a, b byte, sc AlignScores) int {
	if a == b {
		return sc.Match
	}
	return sc.Mismatch
}
