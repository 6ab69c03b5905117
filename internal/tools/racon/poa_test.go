package racon

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"gyan/internal/bioseq"
	"gyan/internal/sim"
)

// AddSequence is addSequence in a workspace borrowed for the call: how the
// tests thread one read at a time into a graph.
func (g *Graph) AddSequence(seq []byte) (DPStats, error) {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	return g.addSequence(ws, seq)
}

// Consensus is consensus in a workspace borrowed for the call.
func (g *Graph) Consensus() []byte {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	return g.consensus(ws)
}

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

// The differential oracle: AddSequence, threadIn and topoOrder exactly as they
// were before the fill kept only the score matrix — three freshly allocated
// matrices per read (score, move kind, move predecessor), a second pass for
// the best end, a traceback that follows the stored moves. The production
// code must leave the same graph after every read.

// topoOrder returns the node IDs in a topological order (Kahn's algorithm).
// The graph is a DAG by construction: sequences are added along monotone
// alignments, so edges always point "forward".
func (g *Graph) topoOrder() []int {
	indeg := make([]int, len(g.nodes))
	for i := range g.nodes {
		for _, e := range g.nodes[i].out {
			indeg[e.to]++
		}
	}
	queue := make([]int, 0, len(g.nodes))
	for i := range g.nodes {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, len(g.nodes))
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, e := range g.nodes[n].out {
			indeg[e.to]--
			if indeg[e.to] == 0 {
				queue = append(queue, e.to)
			}
		}
	}
	return order
}

// oracleAddSequence aligns seq to the graph and threads it in, fusing exact
// matches into existing nodes and adding new nodes elsewhere. It returns the
// DP work statistics. Empty sequences are rejected.
func (g *Graph) oracleAddSequence(seq []byte) (DPStats, error) {
	if len(seq) == 0 {
		return DPStats{}, fmt.Errorf("racon: empty read segment")
	}
	order := g.topoOrder()
	rank := make([]int, len(g.nodes))
	for r, id := range order {
		rank[id] = r
	}

	n, m := len(order), len(seq)
	width := m + 1
	// score[(r+1)*width + j]: best alignment of graph prefix (nodes with
	// topo rank <= r) against seq[:j]. Row 0 is the virtual start.
	score := make([]int32, (n+1)*width)
	moveKind := make([]int8, (n+1)*width) // 0 none, 1 diag, 2 up(gap in seq), 3 left(insertion)
	movePred := make([]int32, (n+1)*width)

	const negInf = int32(-1 << 29)
	gap := int32(g.scores.Gap)

	// Row 0 (virtual start) is all zeros: a leading stretch of the read
	// may be skipped for free. Window segments are clipped from reads by
	// linear coordinates, so indel drift leaves them with up to a few
	// dozen bases that belong to the neighbouring window; overlap-style
	// freedom at both sequence ends lets those dangle instead of being
	// force-threaded into the graph (moveKind 0 marks the traceback
	// stop).
	// Band bookkeeping: a node at topo rank r is roughly at backbone
	// offset r, so restrict j to [r-band, r+band] when banding.
	lo, hi := 0, m
	for r, id := range order {
		row := (r + 1) * width
		if g.band > 0 {
			lo = r - g.band
			if lo < 1 {
				lo = 1
			}
			if lo > m+1 {
				lo = m + 1 // row entirely right of the band
			}
			hi = r + g.band
			if hi > m {
				hi = m
			}
		} else {
			lo, hi = 1, m
		}
		node := &g.nodes[id]

		// Column 0: leading graph nodes are free (semi-global in the
		// graph dimension), so a read fragment that begins mid-window
		// aligns where it belongs instead of being dragged to the
		// window start.
		bestPredRow := int32(0)
		if len(node.in) > 0 {
			best0 := negInf
			for _, e := range node.in {
				pr := int32(rank[e.to] + 1)
				if v := score[int(pr)*width]; v > best0 {
					best0, bestPredRow = v, pr
				}
			}
		}
		score[row] = 0
		moveKind[row] = 2
		movePred[row] = bestPredRow
		for j := 1; j < lo; j++ {
			score[row+j] = negInf
		}
		for j := hi + 1; j <= m; j++ {
			score[row+j] = negInf
		}

		for j := lo; j <= hi; j++ {
			sub := int32(g.scores.Mismatch)
			if node.base == seq[j-1] {
				sub = int32(g.scores.Match)
			}
			best := negInf
			var kind int8
			var pred int32
			if len(node.in) == 0 {
				// Predecessor is the virtual start row.
				if v := score[j-1] + sub; v > best {
					best, kind, pred = v, 1, 0
				}
				if v := score[j] + gap; v > best {
					best, kind, pred = v, 2, 0
				}
			} else {
				for _, e := range node.in {
					pr := int32(rank[e.to] + 1)
					prow := int(pr) * width
					if v := score[prow+j-1] + sub; v > best {
						best, kind, pred = v, 1, pr
					}
					if v := score[prow+j] + gap; v > best {
						best, kind, pred = v, 2, pr
					}
				}
			}
			if v := score[row+j-1] + gap; v > best {
				best, kind, pred = v, 3, int32(r+1)
			}
			score[row+j] = best
			moveKind[row+j] = kind
			movePred[row+j] = pred
		}
	}

	// Find the best end anywhere in the matrix: both the graph suffix and
	// the sequence suffix are free, so the alignment covers the read's
	// true overlap with the window and nothing more. Positive match
	// scores ensure the optimum still extends through the whole matching
	// core.
	bestRow, bestJ, bestScore := 0, 0, int32(0)
	for r := 1; r <= n; r++ {
		row := r * width
		for j := 1; j <= m; j++ {
			if v := score[row+j]; v > bestScore {
				bestScore, bestRow, bestJ = v, r, j
			}
		}
	}

	g.oracleThreadIn(seq, order, moveKind, movePred, bestRow, bestJ, width)
	stats := DPStats{Cells: 0, Nodes: n}
	if g.band > 0 {
		stats.Cells = n * (2*g.band + 1)
	} else {
		stats.Cells = n * m
	}
	return stats, nil
}

// oracleThreadIn walks the traceback from (row, endJ) and mutates the graph:
// matched bases fuse into existing nodes (bumping edge weights along the
// path), mismatches fuse into their column's aligned ring, insertions add
// fresh nodes. The walk stops at the free start (row 0, or sequence
// position 0), so unaligned read overhangs are never threaded.
func (g *Graph) oracleThreadIn(seq []byte, order []int, moveKind []int8, movePred []int32, row, endJ, width int) {
	// Collect the sequence of node IDs this read traverses, in reverse.
	var pathRev []int
	r, j := row, endJ
	for r > 0 && j > 0 {
		idx := r*width + j
		switch moveKind[idx] {
		case 1: // diagonal: seq[j-1] vs node order[r-1]
			nodeID := order[r-1]
			if g.nodes[nodeID].base == seq[j-1] {
				pathRev = append(pathRev, nodeID)
			} else {
				pathRev = append(pathRev, g.alignedNodeFor(nodeID, seq[j-1]))
			}
			r = int(movePred[idx])
			j--
		case 2: // gap in seq: traverse graph node without consuming base
			r = int(movePred[idx])
		case 3: // insertion: new node for seq[j-1]
			pathRev = append(pathRev, g.addNode(seq[j-1]))
			j--
		default:
			// Free start (or out-of-band cell): stop threading.
			r, j = 0, 0
		}
	}
	// Reverse into forward order and connect.
	prev := -1
	for i := len(pathRev) - 1; i >= 0; i-- {
		cur := pathRev[i]
		if prev >= 0 {
			g.addEdge(prev, cur, 1)
		} else {
			g.nodes[cur].starts++
		}
		prev = cur
	}
}

// checkAgainstOracle builds one graph with AddSequence's fill (on ws) and one
// with the oracle's and fails on the first read after which the two differ
// in any node, edge, weight, aligned ring, start count or DPStats.
func checkAgainstOracle(t testing.TB, ws *workspace, backbone []byte, reads [][]byte, band int) {
	t.Helper()
	got, err := NewGraph(backbone, bioseq.DefaultScores(), band)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewGraph(backbone, bioseq.DefaultScores(), band)
	for i, read := range reads {
		gs, gerr := got.addSequence(ws, read)
		os, oerr := want.oracleAddSequence(read)
		if (gerr == nil) != (oerr == nil) || gs != os {
			t.Fatalf("backbone %q band %d read %d %q: got %+v, %v; oracle %+v, %v", backbone, band, i, read, gs, gerr, os, oerr)
		}
		if !reflect.DeepEqual(got.nodes, want.nodes) {
			t.Fatalf("backbone %q band %d reads %q: graph differs from the oracle's after read %d", backbone, band, reads, i)
		}
	}
	if g, w := got.consensus(ws), want.Consensus(); !bytes.Equal(g, w) {
		t.Fatalf("backbone %q band %d reads %q: consensus %q, oracle graph's %q", backbone, band, reads, g, w)
	}
}

// randomCase draws a backbone, 1-8 reads and a band. Two-letter alphabets
// force score ties; reads are mutated backbone slices (so they fuse, branch
// and build aligned rings and multi-in-edge nodes) or unrelated sequences,
// sometimes longer than the graph, sometimes a single base.
func randomCase(rng *sim.RNG) (backbone []byte, reads [][]byte, band int) {
	alphabet := [][]byte{[]byte(bioseq.Alphabet), []byte("AC"), {0x80, 0xff, 'A'}}[rng.Intn(3)]
	random := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return b
	}
	length := func() int {
		if rng.Intn(10) == 0 {
			return 1
		}
		return 1 + rng.Intn(70)
	}
	backbone = random(length())
	for k := 1 + rng.Intn(8); k > 0; k-- {
		if rng.Intn(3) == 0 {
			reads = append(reads, random(length()))
			continue
		}
		from := rng.Intn(len(backbone))
		var read []byte
		for _, b := range backbone[from : from+1+rng.Intn(len(backbone)-from)] {
			switch rng.Intn(12) {
			case 0: // deletion
			case 1:
				read = append(read, b, alphabet[rng.Intn(len(alphabet))])
			case 2:
				read = append(read, alphabet[rng.Intn(len(alphabet))])
			default:
				read = append(read, b)
			}
		}
		if len(read) == 0 {
			read = random(1)
		}
		reads = append(reads, read)
	}
	if rng.Intn(2) == 0 {
		band = 1 + rng.Intn(40)
	}
	return backbone, reads, band
}

func TestAddSequenceMatchesOracle(t *testing.T) {
	rng := sim.NewRNG(22)
	ws := new(workspace) // one for every case: reuse is part of what is checked
	for i := 0; i < 4000; i++ {
		backbone, reads, band := randomCase(rng)
		checkAgainstOracle(t, ws, backbone, reads, band)
	}
}

// FuzzAddSequence holds the same comparison over arbitrary bytes; reads are
// the newline-separated pieces of the second argument.
func FuzzAddSequence(f *testing.F) {
	f.Add([]byte("ACGTACGTGGCCAATT"), []byte("ACGTACGTGGCCAATT\nACGTACGAGGCAATT\nTTTT"), uint8(0))
	f.Fuzz(func(t *testing.T, backbone, reads []byte, band uint8) {
		if len(backbone) == 0 || len(backbone) > 256 || len(reads) > 1024 {
			t.Skip()
		}
		var split [][]byte
		for _, read := range bytes.Split(reads, []byte("\n")) {
			if len(read) > 0 && len(split) < 8 {
				split = append(split, read)
			}
		}
		checkAgainstOracle(t, new(workspace), backbone, split, int(band%41))
	})
}

// TestWorkspaceReuseIsStateless polishes a large window, a small one and the
// large one again on one workspace, banded after unbanded, with the score
// matrix poisoned in between: a consensus that differs from a fresh
// workspace's means a cell was read before this read wrote it.
func TestWorkspaceReuseIsStateless(t *testing.T) {
	rng := sim.NewRNG(5)
	window := func(n, reads int) Window {
		w := Window{Backbone: make([]byte, n)}
		for i := range w.Backbone {
			w.Backbone[i] = bioseq.Alphabet[rng.Intn(4)]
		}
		for k := 0; k < reads; k++ {
			seg := append([]byte(nil), w.Backbone[rng.Intn(n/4):n-rng.Intn(n/4)]...)
			for i := range seg {
				if rng.Intn(12) == 0 {
					seg[i] = bioseq.Alphabet[rng.Intn(4)]
				}
			}
			w.Segments = append(w.Segments, seg)
		}
		return w
	}
	large, small := window(300, 8), window(40, 3)
	polish := func(ws *workspace, w Window, band int) []byte {
		g, err := NewGraph(w.Backbone, bioseq.DefaultScores(), band)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range w.Segments {
			if _, err := g.addSequence(ws, seg); err != nil {
				t.Fatal(err)
			}
		}
		return g.consensus(ws)
	}
	ws := new(workspace)
	for i, step := range []struct {
		w    Window
		band int
	}{{large, 0}, {small, 0}, {large, 25}, {small, 5}, {large, 0}} {
		got, want := polish(ws, step.w, step.band), polish(new(workspace), step.w, step.band)
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: reused workspace gave %q, a fresh one %q", i, got, want)
		}
		for j := range ws.score[:cap(ws.score)] {
			ws.score[:cap(ws.score)][j] = 1 << 28
		}
	}
}

// allocatedBy reports the heap bytes f allocates on this goroutine's watch.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAddSequenceAllocatesOnlyTheGraph pins the memory: on a warm workspace
// an 80-base read on a 240-node graph allocates what it adds to the graph
// and nothing per cell (three fresh matrices were ~175 KB).
func TestAddSequenceAllocatesOnlyTheGraph(t *testing.T) {
	rng := sim.NewRNG(7)
	backbone := make([]byte, 240)
	for i := range backbone {
		backbone[i] = bioseq.Alphabet[rng.Intn(4)]
	}
	read := append([]byte(nil), backbone[100:180]...)
	read[17], read[40] = 'N', 'N' // two branches off the backbone
	g, err := NewGraph(backbone, bioseq.DefaultScores(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ws := new(workspace)
	if _, err := g.addSequence(ws, read); err != nil {
		t.Fatal(err)
	}
	if got := allocatedBy(func() { _, err = g.addSequence(ws, read) }); err != nil || got >= 8<<10 {
		t.Fatalf("second AddSequence allocated %d bytes (err %v), want < 8 KiB", got, err)
	}
}

// TestNewGraphAllocatesPerGraph pins the spine: a 240-base window's graph is
// the Graph, its node array and one array of spine edges, not a slice per
// edge (that was ~480 allocations).
func TestNewGraphAllocatesPerGraph(t *testing.T) {
	backbone := bytes.Repeat([]byte("ACGT"), 60)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewGraph(backbone, bioseq.DefaultScores(), 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("NewGraph of a %d-base spine made %v allocations, want <= 3", len(backbone), allocs)
	}
}
