package racon

import (
	"testing"
	"testing/quick"

	"gyan/internal/bioseq"
	"gyan/internal/sim"
)

func mustGraph(t *testing.T, backbone string, band int) *Graph {
	t.Helper()
	g, err := NewGraph([]byte(backbone), bioseq.DefaultScores(), band)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(nil, bioseq.DefaultScores(), 0); err == nil {
		t.Error("empty backbone accepted")
	}
	if _, err := NewGraph([]byte("ACGT"), bioseq.DefaultScores(), -1); err == nil {
		t.Error("negative band accepted")
	}
}

func TestBackboneOnlyConsensusIsBackbone(t *testing.T) {
	backbone := "ACGTACGTGGCCAATT"
	g := mustGraph(t, backbone, 0)
	if got := string(g.Consensus()); got != backbone {
		t.Fatalf("consensus of bare backbone = %s, want %s", got, backbone)
	}
}

func TestAddIdenticalSequencesKeepsConsensus(t *testing.T) {
	backbone := "ACGTACGTGGCCAATT"
	g := mustGraph(t, backbone, 0)
	for i := 0; i < 5; i++ {
		if _, err := g.AddSequence([]byte(backbone)); err != nil {
			t.Fatal(err)
		}
	}
	if got := string(g.Consensus()); got != backbone {
		t.Fatalf("consensus = %s, want %s", got, backbone)
	}
	// Identical sequences must fuse, not balloon the graph.
	if len(g.nodes) != len(backbone) {
		t.Fatalf("graph has %d nodes after identical adds, want %d", len(g.nodes), len(backbone))
	}
}

func TestMajorityCorrectsSubstitution(t *testing.T) {
	// Backbone has a wrong base at position 8; reads carry the truth.
	truth := "ACGTACGTGGCCAATTACGT"
	draft := "ACGTACGTAGCCAATTACGT" // G->A error at index 8
	g := mustGraph(t, draft, 0)
	for i := 0; i < 6; i++ {
		if _, err := g.AddSequence([]byte(truth)); err != nil {
			t.Fatal(err)
		}
	}
	if got := string(g.Consensus()); got != truth {
		t.Fatalf("consensus = %s, want corrected %s", got, truth)
	}
}

func TestMajorityCorrectsDeletionAndInsertion(t *testing.T) {
	truth := "ACGTACGTGGCCAATTACGT"
	draftDel := "ACGTACGTGCCAATTACGT"   // one G dropped
	draftIns := "ACGTACGTGGGCCAATTACGT" // extra G
	for name, draft := range map[string]string{"deletion": draftDel, "insertion": draftIns} {
		g := mustGraph(t, draft, 0)
		for i := 0; i < 6; i++ {
			if _, err := g.AddSequence([]byte(truth)); err != nil {
				t.Fatal(err)
			}
		}
		if got := string(g.Consensus()); got != truth {
			t.Errorf("%s: consensus = %s, want %s", name, got, truth)
		}
	}
}

func TestNoisyReadsStillPolish(t *testing.T) {
	rng := sim.NewRNG(42)
	truth := make([]byte, 150)
	for i := range truth {
		truth[i] = bioseq.Alphabet[rng.Intn(4)]
	}
	// Draft: 5% substitution errors.
	draft := append([]byte(nil), truth...)
	for i := range draft {
		if rng.Float64() < 0.05 {
			draft[i] = bioseq.Alphabet[rng.Intn(4)]
		}
	}
	g, err := NewGraph(draft, bioseq.DefaultScores(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// 20 reads, each with 3% errors.
	for k := 0; k < 20; k++ {
		read := append([]byte(nil), truth...)
		for i := range read {
			if rng.Float64() < 0.03 {
				read[i] = bioseq.Alphabet[rng.Intn(4)]
			}
		}
		if _, err := g.AddSequence(read); err != nil {
			t.Fatal(err)
		}
	}
	cons := g.Consensus()
	before := bioseq.Identity(draft, truth)
	after := bioseq.Identity(cons, truth)
	if after <= before {
		t.Fatalf("polishing did not improve identity: %.4f -> %.4f", before, after)
	}
	if after < 0.98 {
		t.Fatalf("polished identity %.4f, want >= 0.98", after)
	}
}

func TestBandedMatchesFullOnCleanData(t *testing.T) {
	truth := "ACGTACGTGGCCAATTACGTACGTGGCCAATT"
	full := mustGraph(t, truth, 0)
	banded := mustGraph(t, truth, 8)
	for i := 0; i < 4; i++ {
		if _, err := full.AddSequence([]byte(truth)); err != nil {
			t.Fatal(err)
		}
		if _, err := banded.AddSequence([]byte(truth)); err != nil {
			t.Fatal(err)
		}
	}
	if f, b := string(full.Consensus()), string(banded.Consensus()); f != b {
		t.Fatalf("banded consensus %q != full consensus %q", b, f)
	}
}

func TestBandingReducesDPWork(t *testing.T) {
	seq := make([]byte, 300)
	rng := sim.NewRNG(9)
	for i := range seq {
		seq[i] = bioseq.Alphabet[rng.Intn(4)]
	}
	full := mustGraph(t, string(seq), 0)
	banded := mustGraph(t, string(seq), 20)
	sf, err := full.AddSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := banded.AddSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Cells >= sf.Cells {
		t.Fatalf("banded DP cells %d >= full %d", sb.Cells, sf.Cells)
	}
}

func TestAddSequenceRejectsEmpty(t *testing.T) {
	g := mustGraph(t, "ACGT", 0)
	if _, err := g.AddSequence(nil); err == nil {
		t.Fatal("empty sequence accepted")
	}
}

// Property: the graph stays a DAG (topological order covers all nodes) under
// arbitrary read additions.
func TestGraphRemainsDAG(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		backbone := make([]byte, 40+rng.Intn(40))
		for i := range backbone {
			backbone[i] = bioseq.Alphabet[rng.Intn(4)]
		}
		g, err := NewGraph(backbone, bioseq.DefaultScores(), 0)
		if err != nil {
			return false
		}
		for k := 0; k < 5; k++ {
			read := make([]byte, 20+rng.Intn(60))
			for i := range read {
				read[i] = bioseq.Alphabet[rng.Intn(4)]
			}
			if _, err := g.AddSequence(read); err != nil {
				return false
			}
			if len(g.topoOrder()) != len(g.nodes) {
				return false // cycle: topo order incomplete
			}
		}
		return len(g.Consensus()) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
