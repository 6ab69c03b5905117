package bioseq

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gyan/internal/sim"
)

// editDistanceDP is the textbook two-row Levenshtein recurrence EditDistance
// used to be: the oracle the bit-vector kernel is held to.
func editDistanceDP(a, b []byte) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// mutate returns s with roughly one edit per `every` bytes, so the pair
// (s, mutate(s)) sits where the tools' inputs do: mostly matching.
func mutate(r *sim.RNG, s []byte, every int) []byte {
	out := make([]byte, 0, len(s)+len(s)/every+1)
	for _, c := range s {
		switch r.Intn(3 * every) {
		case 0: // substitute
			out = append(out, Alphabet[r.Intn(4)])
		case 1: // delete
		case 2: // insert
			out = append(out, c, Alphabet[r.Intn(4)])
		default:
			out = append(out, c)
		}
	}
	return out
}

// TestEditDistanceMatchesDP walks both sides of every block boundary with
// unrelated and with nearly-equal pairs, and the lengths in between at
// random.
func TestEditDistanceMatchesDP(t *testing.T) {
	r := sim.NewRNG(20)
	check := func(a, b []byte) {
		t.Helper()
		if got, want := EditDistance(a, b), editDistanceDP(a, b); got != want {
			t.Fatalf("EditDistance(len %d, len %d) = %d, DP says %d\na=%q\nb=%q", len(a), len(b), got, want, a, b)
		}
	}
	for _, m := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 1000} {
		for _, n := range []int{0, 1, 63, 64, 65, 130, 700} {
			check(randomSeq(r, "a", m).Bases, randomSeq(r, "b", n).Bases)
		}
		a := randomSeq(r, "a", m).Bases
		check(a, mutate(r, a, 10))
	}
	for i := 0; i < 1500; i++ {
		a := randomSeq(r, "a", r.Intn(300)).Bases
		check(a, randomSeq(r, "b", r.Intn(300)).Bases)
		check(a, mutate(r, a, 2+r.Intn(20)))
	}
}

// edit returns s with d edits at distinct positions: substitutions by
// another base if subsOnly, else substitutions, deletions and insertions.
func edit(r *sim.RNG, s []byte, d int, subsOnly bool) []byte {
	kind := make([]int, len(s))
	for placed := 0; placed < d; {
		if i := r.Intn(len(s)); kind[i] == 0 {
			kind[i] = 1
			if !subsOnly {
				kind[i] += r.Intn(3)
			}
			placed++
		}
	}
	out := make([]byte, 0, len(s)+d)
	for i, c := range s {
		switch kind[i] {
		case 0:
			out = append(out, c)
		case 1: // substitute
			out = append(out, Alphabet[(strings.IndexByte(Alphabet, c)+1+r.Intn(3))%4])
		case 2: // delete
		case 3: // insert
			out = append(out, c, Alphabet[r.Intn(4)])
		}
	}
	return out
}

// editEnds returns s with up to e edits of any kind within three bases of
// either end, where the diagonals meet the DP matrix's edges.
func editEnds(r *sim.RNG, s []byte, e int) []byte {
	s = slices.Clone(s)
	for ; e > 0 && len(s) > 6; e-- {
		i := r.Intn(3)
		if r.Intn(2) == 0 {
			i = len(s) - 1 - i
		}
		switch r.Intn(3) {
		case 0:
			s[i] = Alphabet[r.Intn(4)]
		case 1:
			s = slices.Delete(s, i, i+1)
		case 2:
			s = slices.Insert(s, i, Alphabet[r.Intn(4)])
		}
	}
	return s
}

// TestEditDistancePathsMatchDP steps the distance of mutated pairs of 64, 400
// and 4 000 bases from 0 past the round where furthestReaching gives up, and
// their length difference across the bound where it gives up at once, on
// both sides; it adds edits next to either end and low-complexity pairs.
// EditDistance and bitVector must equal the DP, and
// furthestReaching must answer, with the DP's distance, exactly when that
// distance is within diagonalRounds. FuzzEditDistance's corpus holds the same
// edges at 400 bases (len-400-rounds-*: 8 and 9 substitutions, 8 and 9 bases
// shorter).
func TestEditDistancePathsMatchDP(t *testing.T) {
	r := sim.NewRNG(40)
	// check returns whether furthestReaching answered.
	check := func(a, b []byte) bool {
		t.Helper()
		want := editDistanceDP(a, b)
		if got := EditDistance(a, b); got != want {
			t.Fatalf("EditDistance(len %d, len %d) = %d, DP says %d", len(a), len(b), got, want)
		}
		if len(a) < len(b) {
			a, b = b, a
		}
		if got := bitVector(a, b); got != want {
			t.Fatalf("bitVector(len %d, len %d) = %d, DP says %d", len(a), len(b), got, want)
		}
		rounds := diagonalRounds(len(a), len(b))
		d, ok := furthestReaching(a, b)
		if ok != (want <= rounds) || ok && d != want {
			t.Fatalf("furthestReaching(len %d, len %d) = %d, %v with %d rounds, DP says %d", len(a), len(b), d, ok, rounds, want)
		}
		return ok
	}
	// Every diagonal furthestReaching visits meets the matrix: its rounds
	// stay below m (past m = maxRounds the cap sees to that).
	for m := 1; m <= maxRounds; m++ {
		for n := m; n-m <= diagonalRounds(n, m); n++ {
			if rounds := diagonalRounds(n, m); rounds >= m {
				t.Fatalf("diagonalRounds(%d, %d) = %d, not below m", n, m, rounds)
			}
		}
	}
	for i := 0; i < 400; i++ {
		a := randomSeq(r, "a", 130+r.Intn(300)).Bases
		check(a, editEnds(r, a, 1+r.Intn(4)))
	}
	for _, n := range []int{64, 400, 4000} {
		a := randomSeq(r, "a", n).Bases
		bound := diagonalRounds(n, n)
		steps := []int{0, 1, 2, 3}
		for d := max(4, bound-2); d <= bound+3; d++ {
			steps = append(steps, d)
		}
		answered := map[bool]bool{}
		for _, d := range steps {
			answered[check(a, edit(r, a, d, true))] = true
			check(a, edit(r, a, d, false))
		}
		if !answered[true] || !answered[false] {
			t.Errorf("%d bases: substitutions never reached both paths", n)
		}
		// Low-complexity pairs: homopolymer and dinucleotide runs, where
		// every diagonal slides far.
		poly := bytes.Repeat([]byte("A"), n)
		di := bytes.Repeat([]byte("AC"), n/2)
		check(poly, poly[:n-1])
		check(di, di[1:])
		check(di, append(slices.Clone(di[:n/2]), di[n/2+1:]...))
		check(poly, edit(r, poly, 2, false))
		check(di, edit(r, di, bound, false))
		// The longest deletion run furthestReaching still answers is the
		// largest delta with delta <= diagonalRounds(n, n-delta).
		delta := 0
		for delta+1 <= diagonalRounds(n, n-delta-1) {
			delta++
		}
		for _, del := range []int{delta, delta + 1} {
			b := slices.Delete(slices.Clone(a), n/3, n/3+del)
			if ok := check(a, b); ok != (del == delta) {
				t.Errorf("%d bases, %d deleted: furthestReaching answered %v", n, del, ok)
			}
			check(b, a)
			check(edit(r, b, 2, false), a)
		}
	}
}

// FuzzEditDistance holds the kernel to the DP on arbitrary bytes. Its seed
// corpus is checked in under testdata/fuzz/FuzzEditDistance: empty and
// one-sided-empty inputs, both sides of the 64- and 128-row block boundaries
// and 1 000 bases (nearly equal and unrelated), equal strings, disjoint
// alphabets and bytes >= 0x80.
func FuzzEditDistance(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) > 4096 || len(b) > 4096 {
			t.Skip("the quadratic oracle bounds the input")
		}
		if got, want := EditDistance(a, b), editDistanceDP(a, b); got != want {
			t.Fatalf("EditDistance(%q, %q) = %d, DP says %d", a, b, got, want)
		}
	})
}

// TestEditDistanceMemoryBounded pins the kernel's footprint: racon hands it
// two 20 kb sequences, where a 256-row mask table alone would be 640 KB, and
// nothing may be allocated per text column.
func TestEditDistanceMemoryBounded(t *testing.T) {
	r := sim.NewRNG(11)
	a, b := randomSeq(r, "a", 20000).Bases, randomSeq(r, "b", 20000).Bases
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	EditDistance(a, b)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("EditDistance on two 20 000-base inputs allocates %d B, want < 64 KiB", got)
	}
	pat := randomSeq(r, "p", 400).Bases
	short, long := randomSeq(r, "s", 400).Bases, randomSeq(r, "l", 4000).Bases
	onShort := testing.AllocsPerRun(20, func() { EditDistance(pat, short) })
	onLong := testing.AllocsPerRun(20, func() { EditDistance(pat, long) })
	if onShort != onLong {
		t.Errorf("allocations grow with the text: %v objects on 400 bases, %v on 4 000", onShort, onLong)
	}
}
