package bioseq_test

import (
	"sort"
	"testing"

	"gyan/internal/bioseq"
	"gyan/internal/workload"
)

// statsFold is the single-pass fold Stats used to be, with the G/C branch
// per base that gcCount replaced: the reference the library-counted version
// must equal field for field.
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
