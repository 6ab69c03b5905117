package bioseq

import (
	"testing"
	"testing/quick"

	"gyan/internal/sim"
)

func randomSeq(r *sim.RNG, id string, n int) Seq {
	b := make([]byte, n)
	for i := range b {
		b[i] = Alphabet[r.Intn(4)]
	}
	return Seq{ID: id, Bases: b}
}

func TestEditDistanceKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"ACGT", "ACGT", 0},
		{"ACGT", "ACGA", 1},
		{"ACGT", "CGT", 1},
		{"ACGT", "", 4},
		{"AAAA", "TTTT", 4},
		{"GATTACA", "GCATGCT", 4}, // classic example (wikipedia uses kitten/sitting=3)
	}
	for _, tc := range cases {
		if got := EditDistance([]byte(tc.a), []byte(tc.b)); got != tc.want {
			t.Errorf("EditDistance(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestEditDistanceSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		a := randomSeq(r, "a", r.Intn(60)).Bases
		b := randomSeq(r, "b", r.Intn(60)).Bases
		return EditDistance(a, b) == EditDistance(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEditDistanceTriangle(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		a := randomSeq(r, "a", r.Intn(40)).Bases
		b := randomSeq(r, "b", r.Intn(40)).Bases
		c := randomSeq(r, "c", r.Intn(40)).Bases
		return EditDistance(a, c) <= EditDistance(a, b)+EditDistance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		a := randomSeq(r, "a", 1+r.Intn(60)).Bases
		b := randomSeq(r, "b", 1+r.Intn(60)).Bases
		id := Identity(a, b)
		return id >= 0 && id <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if Identity([]byte("ACGT"), []byte("ACGT")) != 1 {
		t.Error("identity of equal sequences != 1")
	}
}

func TestStatsKnownValues(t *testing.T) {
	seqs := []Seq{
		{ID: "a", Bases: []byte("GGGGGGGGGG")}, // 10
		{ID: "b", Bases: []byte("AAAA")},       // 4
		{ID: "c", Bases: []byte("ACGTAC")},     // 6
	}
	st := Stats(seqs)
	if st.Count != 3 || st.TotalBases != 20 {
		t.Fatalf("count/bases = %d/%d", st.Count, st.TotalBases)
	}
	if st.MinLen != 4 || st.MaxLen != 10 {
		t.Errorf("min/max = %d/%d", st.MinLen, st.MaxLen)
	}
	// Half of 20 is 10; the longest sequence alone covers it.
	if st.N50 != 10 {
		t.Errorf("N50 = %d, want 10", st.N50)
	}
	// GC: 10 G + (1C+1G+1C from c) + 0 = 13 of 20.
	if st.GC < 0.649 || st.GC > 0.651 {
		t.Errorf("GC = %v, want 0.65", st.GC)
	}
	if got := st.MeanLen; got < 6.66 || got > 6.67 {
		t.Errorf("mean = %v", got)
	}
}

func TestStatsEmptyAndSingle(t *testing.T) {
	if st := Stats(nil); st != (SetStats{}) {
		t.Fatalf("empty stats = %+v", st)
	}
	st := Stats([]Seq{{ID: "x", Bases: []byte("ACGT")}})
	if st.N50 != 4 || st.MinLen != 4 || st.MaxLen != 4 {
		t.Fatalf("single-seq stats = %+v", st)
	}
}

// Property: N50 always lies within [MinLen, MaxLen] and sequences >= N50
// cover at least half the bases.
func TestStatsN50Property(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		n := 1 + r.Intn(30)
		seqs := make([]Seq, n)
		for i := range seqs {
			seqs[i] = randomSeq(r, "s", 1+r.Intn(100))
		}
		st := Stats(seqs)
		if st.N50 < st.MinLen || st.N50 > st.MaxLen {
			return false
		}
		var covered int64
		for _, s := range seqs {
			if s.Len() >= st.N50 {
				covered += int64(s.Len())
			}
		}
		return covered*2 >= st.TotalBases
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
