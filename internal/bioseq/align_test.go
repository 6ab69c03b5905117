package bioseq

import (
	"runtime"
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
