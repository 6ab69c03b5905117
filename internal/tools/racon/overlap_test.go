package racon

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"gyan/internal/bioseq"
	"gyan/internal/sim"
)

// mapReadsOracle is the mapper MapReads replaced, kept verbatim as its
// differential oracle: a Go map from each backbone k-mer to its positions,
// and a fresh map of diagonal votes per read.
func mapReadsOracle(backbone bioseq.Seq, reads []bioseq.Seq, k int) ([]Mapping, MapStats, error) {
	if k <= 0 || k > 31 {
		return nil, MapStats{}, fmt.Errorf("racon: k-mer length %d out of range", k)
	}
	if backbone.Len() < k {
		return nil, MapStats{}, fmt.Errorf("racon: backbone shorter than k (%d < %d)", backbone.Len(), k)
	}

	index := make(map[uint64][]int32)
	var stats MapStats
	forEachKmer(backbone.Bases, k, func(pos int, h uint64) {
		index[h] = append(index[h], int32(pos))
		stats.KmersIndexed++
	})

	var out []Mapping
	for ri, read := range reads {
		// Diagonal voting. Diagonals are offset by read length so they
		// are non-negative map keys even for reads hanging off the left
		// edge.
		votes := make(map[int]int)
		forEachKmer(read.Bases, k, func(off int, h uint64) {
			stats.KmersQueried++
			for _, pos := range index[h] {
				votes[int(pos)-off]++
			}
		})
		bestDiag, bestVotes := 0, 0
		for d, v := range votes {
			if v > bestVotes || (v == bestVotes && d < bestDiag) {
				bestDiag, bestVotes = d, v
			}
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

// checkMapAgainstOracle fails unless MapReads and the oracle return the same
// mappings, stats and error.
func checkMapAgainstOracle(t testing.TB, backbone []byte, reads [][]byte, k int) {
	t.Helper()
	bb := bioseq.Seq{ID: "bb", Bases: backbone}
	seqs := make([]bioseq.Seq, len(reads))
	for i, r := range reads {
		seqs[i] = bioseq.Seq{ID: fmt.Sprint(i), Bases: r}
	}
	got, gs, gerr := MapReads(bb, seqs, k)
	want, ws, werr := mapReadsOracle(bb, seqs, k)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || gs != ws || !reflect.DeepEqual(got, want) {
		t.Fatalf("backbone %q k %d reads %q:\ngot    %+v %+v %v\noracle %+v %+v %v", backbone, k, reads, got, gs, gerr, want, ws, werr)
	}
}

// randomMapCase draws a backbone, a k and up to ten reads. Two-letter and
// tandem-repeat backbones repeat their k-mers; reads are mutated backbone
// slices, slices hanging off either end, two slices glued together (whose
// diagonals can tie), reads shorter than k, empty reads and unrelated ones.
func randomMapCase(rng *sim.RNG) (backbone []byte, reads [][]byte, k int) {
	alphabet := []byte(bioseq.Alphabet)
	if rng.Intn(3) == 0 {
		alphabet = []byte("AC")
	}
	random := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return b
	}
	k = 1 + rng.Intn(8)
	if rng.Intn(4) == 0 {
		k = 1 + rng.Intn(31)
	}
	n := max(1, k-2+rng.Intn(200))
	if rng.Intn(4) == 0 { // a tandem repeat: every diagonal a period apart ties
		unit := random(1 + rng.Intn(6))
		for len(backbone) < n {
			backbone = append(backbone, unit...)
		}
		backbone = backbone[:n]
	} else {
		backbone = random(n)
	}
	slice := func() []byte {
		from := rng.Intn(len(backbone))
		return backbone[from : from+1+rng.Intn(len(backbone)-from)]
	}
	for r := rng.Intn(11); r > 0; r-- {
		var read []byte
		switch rng.Intn(7) {
		case 0: // off the left end
			read = append(random(1+rng.Intn(30)), backbone[:1+rng.Intn(len(backbone))]...)
		case 1: // off the right end
			read = append(append(read, backbone[rng.Intn(len(backbone)):]...), random(1+rng.Intn(30))...)
		case 2: // two placements, often equally supported
			read = append(append(read, slice()...), slice()...)
		case 3: // shorter than k
			read = random(rng.Intn(k))
		case 4:
			read = random(rng.Intn(120))
		default: // a noisy copy
			for _, b := range slice() {
				switch rng.Intn(15) {
				case 0:
				case 1:
					read = append(read, b, alphabet[rng.Intn(len(alphabet))])
				case 2:
					read = append(read, alphabet[rng.Intn(len(alphabet))])
				default:
					read = append(read, b)
				}
			}
		}
		reads = append(reads, read)
	}
	return backbone, reads, k
}

func TestMapReadsMatchesOracle(t *testing.T) {
	rng := sim.NewRNG(35)
	for i := 0; i < 3000; i++ {
		backbone, reads, k := randomMapCase(rng)
		checkMapAgainstOracle(t, backbone, reads, k)
	}
	// The server's default read set, at the mapper's k.
	rs := testReadSet(t)
	reads := make([][]byte, len(rs.Reads))
	for i, r := range rs.Reads {
		reads[i] = r.Bases
	}
	checkMapAgainstOracle(t, rs.Backbone.Bases, reads, DefaultK)
}

// FuzzMapReads holds the same comparison over arbitrary bytes; reads are the
// newline-separated pieces of the second argument, k is taken mod 33 so the
// out-of-range lengths are drawn too.
func FuzzMapReads(f *testing.F) {
	f.Add([]byte("ACGTACGTGGCCAATTACGTTGCA"), []byte("ACGTACGTGGCC\nGGCCAATTACGTT\nTTTTACGTAC"), uint8(4))
	f.Add([]byte("ACACACACACACACACAC"), []byte("CACACACA\nAC\n\nACACACACACACACACACACAC"), uint8(2))
	f.Add([]byte("ACGT"), []byte("ACGT"), uint8(0))
	f.Fuzz(func(t *testing.T, backbone, reads []byte, k uint8) {
		if len(backbone) > 512 || len(reads) > 2048 {
			t.Skip()
		}
		split := bytes.Split(reads, []byte("\n"))
		if len(split) > 16 {
			split = split[:16]
		}
		checkMapAgainstOracle(t, backbone, split, int(k%33))
	})
}
