package bioseq_test

import (
	"math/rand/v2"
	"sort"
	"testing"

	"gyan/internal/bioseq"
	"gyan/internal/workload"
)

// statsFold is the single-pass fold Stats used to be, with the G/C branch
// per base that gcCount replaced and the N50 walked down a reverse sort: the
// reference the library-counted, ascending-sorted version must equal field
// for field.
func statsFold(seqs []bioseq.Seq) bioseq.SetStats {
	if len(seqs) == 0 {
		return bioseq.SetStats{}
	}
	st := bioseq.SetStats{Count: len(seqs), MinLen: seqs[0].Len(), MaxLen: seqs[0].Len()}
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
		for _, b := range s.Bases {
			if b == 'G' || b == 'C' {
				gc++
			}
		}
	}
	st.MeanLen = float64(st.TotalBases) / float64(st.Count)
	if st.TotalBases > 0 {
		st.GC = float64(gc) / float64(st.TotalBases)
	}
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

func TestStatsMatchesFold(t *testing.T) {
	nfl, err := workload.AlzheimersNFL(42)
	if err != nil {
		t.Fatal(err)
	}
	odd := []bioseq.Seq{
		{ID: "lower", Bases: []byte("acgtgcGCgc")},
		{ID: "iupac", Bases: []byte("NNRYSWKMGCN-*")},
		{ID: "empty"},
		{ID: "bytes", Bases: []byte{0x00, 'G', 0x80, 0xff, 'C', 'G' | 0x80, 'c'}},
	}
	for name, seqs := range map[string][]bioseq.Seq{"alzheimers_nfl": nfl.Reads, "odd": odd, "empty-only": odd[2:3]} {
		if got, want := bioseq.Stats(seqs), statsFold(seqs); got != want {
			t.Errorf("%s: Stats = %+v, the fold says %+v", name, got, want)
		}
	}
}

// TestStatsN50MatchesReverseSort holds Stats to the fold on random length
// sets: a few lengths drawn from a narrow range (most of them ties, zeros
// included), and many from a wide one.
func TestStatsN50MatchesReverseSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 500; trial++ {
		span := 4
		if trial%2 == 1 {
			span = 5000
		}
		seqs := make([]bioseq.Seq, 1+rng.IntN(200))
		for i := range seqs {
			seqs[i].Bases = make([]byte, rng.IntN(span))
		}
		if got, want := bioseq.Stats(seqs), statsFold(seqs); got != want {
			t.Fatalf("trial %d (%d lengths below %d): Stats = %+v, the fold says %+v", trial, len(seqs), span, got, want)
		}
	}
}

// FuzzStats holds Stats to the fold on arbitrary reads: lens gives each read's
// length (a byte times 1 + scale mod 64, so reads run past the 8 160 bases at
// which the AVX2 count folds its byte counters), and the reads cycle through
// data. The seeds hold empty reads, reads whose length is no multiple of 32,
// and the bytes that must not count as G or C: lower case and G or C with the
// top bit set.
func FuzzStats(f *testing.F) {
	f.Add([]byte("ACGT"), []byte{0, 1, 31, 32, 33, 0}, uint8(0))
	f.Add([]byte{'G' | 0x80, 'C' | 0x80, 'c', 'g', 'G', 'C', 0x00, 0xff, 'F', 'O', 'W', 'G' &^ 0x40, 'C' | 0x20}, []byte{7, 63, 65, 255}, uint8(1))
	f.Add([]byte("GGCCGCGA"), []byte{255, 3, 129}, uint8(63))
	f.Add([]byte{}, []byte{0, 0}, uint8(9))
	f.Fuzz(func(t *testing.T, data, lens []byte, scale uint8) {
		seqs := make([]bioseq.Seq, len(lens))
		at := 0
		for i, l := range lens {
			n := int(l) * (1 + int(scale)%64)
			if len(data) == 0 {
				n = 0
			}
			seqs[i].Bases = make([]byte, n)
			for j := range seqs[i].Bases {
				seqs[i].Bases[j] = data[at%len(data)]
				at++
			}
		}
		if got, want := bioseq.Stats(seqs), statsFold(seqs); got != want {
			t.Fatalf("%d reads: Stats = %+v, the fold says %+v", len(seqs), got, want)
		}
	})
}

// BenchmarkStats summarizes alzheimers_nfl's reads, the whole of a seqstats
// job.
func BenchmarkStats(b *testing.B) {
	nfl, err := workload.AlzheimersNFL(42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bioseq.Stats(nfl.Reads)
	}
}
