package bonito

import (
	"fmt"
	"slices"
	"testing"

	"gyan/internal/bioseq"
	"gyan/internal/workload"
)

// collapseTwoPass is the greedy decoder's last step as collapse used to be:
// a repair pass that rewrites (a copy of) classes in place, then a collapse
// pass over the result. The oracle the one-pass collapse is held to.
func collapseTwoPass(classes []int32) []byte {
	classes = slices.Clone(classes)
	for t := 1; t+1 < len(classes); t++ {
		if classes[t] != classBlank && classes[t-1] == classes[t+1] && classes[t-1] != classes[t] {
			classes[t] = classes[t-1]
		}
	}
	bases := [numClasses]byte{classA: 'A', classC: 'C', classG: 'G', classT: 'T', classBlank: 0}
	var out []byte
	prev := int32(-1)
	for _, c := range classes {
		if c != prev && c != classBlank {
			out = append(out, bases[c])
		}
		prev = c
	}
	return out
}

// requireCollapseMatches fails unless collapse, into a fresh buffer and into
// a reused one too short for classes, decodes classes as the oracle does and
// leaves classes as it was, and collapseGo decodes them so too. Where the
// host has AVX2 collapse walks change masks, so both paths are held to the
// oracle.
func requireCollapseMatches(t testing.TB, what string, classes []int32) {
	t.Helper()
	want := collapseTwoPass(classes)
	before := slices.Clone(classes)
	for _, dst := range [][]byte{nil, make([]byte, 3, 5)} {
		if got := collapse(dst, classes); string(got) != string(want) {
			t.Fatalf("%s: collapse(%v) = %q, the two-pass oracle says %q", what, classes, got, want)
		}
	}
	out := make([]byte, len(classes))
	if got := out[:collapseGo(out, classes)]; string(got) != string(want) {
		t.Fatalf("%s: collapseGo(%v) = %q, the two-pass oracle says %q", what, classes, got, want)
	}
	if !slices.Equal(classes, before) {
		t.Fatalf("%s: collapse rewrote its classes", what)
	}
}

// TestCollapseMatchesOracle runs the classes of every read of both bonito
// datasets at seeds 1-5 through both decoders, then hand-built class strings:
// empty, every string of lengths 1-3, alternating blip runs, blips beside
// blanks and a blank at either end.
func TestCollapseMatchesOracle(t *testing.T) {
	net, err := NewPretrained()
	if err != nil {
		t.Fatal(err)
	}
	for _, load := range []func(uint64) (*workload.SquiggleSet, error){workload.AcinetobacterPittii, workload.KlebsiellaPneumoniae} {
		for seed := uint64(1); seed <= 5; seed++ {
			set, err := load(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, sq := range set.Squiggles {
				requireCollapseMatches(t, fmt.Sprintf("%s seed %d %s", set.Name, seed, sq.ID), classesOf(net, sq.Samples, true))
			}
		}
	}

	const A, C, G, T, B = classA, classC, classG, classT, classBlank
	cases := [][]int32{
		{},
		{A, C, A, C, A},
		{A, A, C, A, C, A, C, C},
		{G, G, T, G, T, G, T, G, G},
		{B, A, B},
		{A, A, B, C, B, A, A},
		{B, B, C, B, C, B, B},
		{B, A, A, C, C},
		{A, A, C, C, B},
		{B, A, C, A, B},
		{A, B, A, B, A},
		{C, C, B, C, C},
	}
	for l := 1; l <= 3; l++ {
		classes := make([]int32, l)
		for code := 0; code < pow(numClasses, l); code++ {
			for i, x := 0, code; i < l; i, x = i+1, x/numClasses {
				classes[i] = int32(x % numClasses)
			}
			cases = append(cases, slices.Clone(classes))
		}
	}
	for _, classes := range cases {
		requireCollapseMatches(t, "hand-built", classes)
	}
}

// TestCollapseMasksAtWordBoundaries puts blips, blanks and alternating blip
// runs across the boundaries collapseMasks works in: an 8-timestep block of
// changeMasks, a 64-timestep word (the repair carry), a 2 048-timestep stack
// chunk of masks, and the end of the read, each through collapse and
// collapseGo (requireCollapseMatches). Every read of both bonito datasets
// goes through both in TestCollapseMatchesOracle.
func TestCollapseMasksAtWordBoundaries(t *testing.T) {
	if !useMasks {
		t.Log("no AVX2 on this host: collapse runs collapseGo alone")
	}
	const A, C, G, T, B = classA, classC, classG, classT, classBlank
	patterns := [][]int32{
		{A, A, C, A, A},
		{A, B, A},
		{B, A, B},
		{A, C, A, C, A},
		{C, A, C, A, C, A, C, A},
		{T, T, B, T, C, T, B},
		{G, A, G},
	}
	for _, at := range []int{8, 16, 64, 128, 2048, 4096} {
		for off := -6; off <= 6; off++ {
			for _, p := range patterns {
				for _, after := range []int{0, 1, 3, 9} {
					start := at + off
					classes := make([]int32, start+len(p)+after)
					for i := range classes {
						classes[i] = G
					}
					copy(classes[start:], p)
					requireCollapseMatches(t, fmt.Sprintf("%v at %d, %d after", p, start, after), classes)
				}
			}
		}
	}
}

func pow(b, e int) int {
	p := 1
	for ; e > 0; e-- {
		p *= b
	}
	return p
}

// FuzzCollapse holds collapse to the two-pass oracle on arbitrary class
// strings, one class per byte (the byte mod 5).
func FuzzCollapse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0})
	f.Add([]byte{2, 2, 3, 2, 2, 4, 0, 0})
	f.Add([]byte{4, 1, 4, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		classes := make([]int32, len(data))
		for i, x := range data {
			classes[i] = int32(x % numClasses)
		}
		requireCollapseMatches(t, "fuzz", classes)
	})
}

// TestIdentityOfACallAllocatesNothing: scoring a bonito call against its
// truth, which every read of a job does, is the furthest-reaching pass alone
// and allocates nothing.
func TestIdentityOfACallAllocatesNothing(t *testing.T) {
	set, err := workload.AcinetobacterPittii(42)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewPretrained()
	if err != nil {
		t.Fatal(err)
	}
	sq := set.Squiggles[0]
	call, _, err := net.Basecall(sq)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { bioseq.Identity(call.Bases, sq.Truth.Bases) }); n != 0 {
		t.Errorf("Identity of a call against its truth allocates %v objects, want 0", n)
	}
}

// BenchmarkCollapse decodes the classes of every read of the HTTP mix's
// bonito job (acinetobacter_pittii, 40 reads) into one reused buffer, as a
// worker of basecallAll does.
func BenchmarkCollapse(b *testing.B) {
	set, err := workload.AcinetobacterPittii(42)
	if err != nil {
		b.Fatal(err)
	}
	net, err := NewPretrained()
	if err != nil {
		b.Fatal(err)
	}
	job := make([][]int32, len(set.Squiggles))
	for i, sq := range set.Squiggles {
		job[i] = classesOf(net, sq.Samples, true)
	}
	var dst []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, classes := range job {
			dst = collapse(dst, classes)
		}
	}
}
