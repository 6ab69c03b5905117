// Package racon reimplements the Racon consensus tool the paper evaluates:
// window-based polishing of a draft assembly using partial-order alignment
// (POA) of long reads, with optional banded alignment ("banding
// approximation") and batched execution.
//
// The algorithm is real — the CPU and simulated-GPU backends produce
// identical consensus sequences — while execution time is charged to the
// simulation's virtual clock using the models in model.go, calibrated
// against the paper's Section VI measurements.
//
// The host loop is therefore pure overhead to whoever waits for a job, and
// the POA is written for speed. An alignment fills one int32 score matrix in
// a reused workspace and stores nothing else: a cell's value is a maximum,
// which no evaluation order can change, and the move an alignment takes
// through a cell — the first candidate, in a fixed order, whose value equals
// the cell's — is read back from the scores during the traceback. That order
// (per in-edge diagonal then up, left last; first maximum in row-major order
// as the end; Kahn's order, ascending seeds, first in first out) decides
// ties and so the graph; it is exactly that of the textbook three-matrix
// fill kept in poa_test.go, to which every graph is held node for node.
package racon

import (
	"fmt"
	"sync"

	"gyan/internal/bioseq"
)

// poaEdge is a weighted directed edge between graph nodes.
type poaEdge struct {
	to     int
	weight int
}

// poaNode is one base in the partial-order graph.
type poaNode struct {
	base byte
	out  []poaEdge
	in   []poaEdge
	// aligned lists the nodes occupying the same alignment column with a
	// different base (Lee's POA "aligned nodes" ring). When a read
	// mismatches a column, it fuses into the ring member carrying its
	// base instead of growing a fresh node, so minority/majority evidence
	// accumulates on shared nodes.
	aligned []int32
	// starts counts sequences that begin at this node, seeding the
	// consensus walk.
	starts int
}

// Graph is a partial-order alignment graph. Build one with NewGraph (seeding
// it with the backbone window), fold reads in with addSequence, and extract
// the polished window with consensus; PolishWindow does all three.
type Graph struct {
	nodes  []poaNode
	scores bioseq.AlignScores
	// band is the half-width of the banded alignment; 0 disables banding.
	band int
}

// NewGraph builds a graph containing the backbone sequence as its spine.
func NewGraph(backbone []byte, scores bioseq.AlignScores, band int) (*Graph, error) {
	if len(backbone) == 0 {
		return nil, fmt.Errorf("racon: empty backbone window")
	}
	if band < 0 {
		return nil, fmt.Errorf("racon: negative band %d", band)
	}
	// Room for the backbone and as many read-specific nodes again.
	g := &Graph{nodes: make([]poaNode, len(backbone), 2*len(backbone)), scores: scores, band: band}
	// The spine's edges share one array: node i's out-edge and node i+1's
	// in-edge are its cells 2i and 2i+1, each a capacity-1 slice, so only a
	// node's second edge allocates.
	spine := make([]poaEdge, 2*(len(backbone)-1))
	for i, b := range backbone {
		g.nodes[i].base = b
		if i == 0 {
			g.nodes[i].starts = 1
			continue
		}
		out, in := 2*(i-1), 2*(i-1)+1
		spine[out], spine[in] = poaEdge{to: i, weight: 1}, poaEdge{to: i - 1, weight: 1}
		g.nodes[i-1].out, g.nodes[i].in = spine[out:out+1:out+1], spine[in:in+1:in+1]
	}
	return g, nil
}

func (g *Graph) addNode(base byte) int {
	g.nodes = append(g.nodes, poaNode{base: base})
	return len(g.nodes) - 1
}

func (g *Graph) addEdge(from, to, w int) {
	for i := range g.nodes[from].out {
		if g.nodes[from].out[i].to == to {
			g.nodes[from].out[i].weight += w
			for j := range g.nodes[to].in {
				if g.nodes[to].in[j].to == from {
					g.nodes[to].in[j].weight += w
					return
				}
			}
			return
		}
	}
	g.nodes[from].out = append(g.nodes[from].out, poaEdge{to: to, weight: w})
	g.nodes[to].in = append(g.nodes[to].in, poaEdge{to: from, weight: w})
}

// workspace holds every buffer an alignment or a consensus walk needs. It
// only grows and is never cleared: each use writes what it later reads (row 0,
// column 0 and every cell of every row, in or out of the band), so one
// workspace serves graphs and reads of any size in any order. A polishing
// worker borrows one from workspaces for all its windows, and PolishWindow
// one for the call, so a one-window job allocates no matrix either.
type workspace struct {
	// score[(r+1)*width + j]: best alignment of graph prefix (nodes with
	// topo rank <= r) against seq[:j]. Row 0 is the virtual start. It is the
	// only matrix: the traceback recovers each move from the scores.
	score []int32
	// order is Kahn's topological order (and, while it is being built, the
	// FIFO queue); rank is its inverse; indeg counts unvisited in-edges.
	order, rank, indeg []int
	// profile holds, per distinct node base met in this read, one row of
	// substitution scores against the read; profileAt[b] is 1 + its offset.
	profile   []int32
	profileAt [256]int32
	// preds is predRows' result; path is the traceback's node list.
	preds, path []int
	// unreached is a row of negInf, the state every matrix row starts in.
	unreached []int32
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// grow returns buf resized to n, contents unspecified. A new buffer gets
// headroom, since a graph gains a few nodes with every read.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/2)
	}
	return buf[:n]
}

// topo fills ws.order with the node IDs in topological order and ws.rank with
// each node's position in it: Kahn's algorithm, zero-in-degree nodes seeded
// in ascending ID, first in first out. The order decides which alignment wins
// a tie, so it is part of the result. The graph is a DAG by construction:
// sequences are added along monotone alignments, so edges point "forward".
func (ws *workspace) topo(g *Graph) {
	n := len(g.nodes)
	ws.rank, ws.indeg = grow(ws.rank, n), grow(ws.indeg, n)
	order := grow(ws.order, n)[:0]
	for i := range g.nodes {
		if ws.indeg[i] = len(g.nodes[i].in); ws.indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		id := order[head]
		ws.rank[id] = head
		for _, e := range g.nodes[id].out {
			if ws.indeg[e.to]--; ws.indeg[e.to] == 0 {
				order = append(order, e.to)
			}
		}
	}
	ws.order = order
}

// predRows returns the offsets in ws.score of the rows a cell of node's row
// follows: one per in-edge, in node.in order, or the virtual start row for a
// node that has none. Valid until the next call.
func (ws *workspace) predRows(node *poaNode, width int) []int {
	ws.preds = ws.preds[:0]
	for _, e := range node.in {
		ws.preds = append(ws.preds, (ws.rank[e.to]+1)*width)
	}
	if len(ws.preds) == 0 {
		ws.preds = append(ws.preds, 0)
	}
	return ws.preds
}

// profileFor returns sub[j] = the score of aligning base against seq[j],
// built once per distinct base per read.
func (ws *workspace) profileFor(base byte, seq []byte, s bioseq.AlignScores) []int32 {
	m := len(seq)
	if at := int(ws.profileAt[base]); at > 0 {
		return ws.profile[at-1 : at-1+m]
	}
	at := len(ws.profile)
	ws.profileAt[base] = int32(at + 1)
	for _, c := range seq {
		sub := int32(s.Mismatch)
		if c == base {
			sub = int32(s.Match)
		}
		ws.profile = append(ws.profile, sub)
	}
	return ws.profile[at : at+m]
}

// DPStats reports the dynamic-programming work done by an alignment, which
// feeds the backends' cost models.
type DPStats struct {
	// Cells is the number of DP matrix cells evaluated.
	Cells int
	// Nodes is the graph size at alignment time.
	Nodes int
}

// negInf marks a cell no alignment reaches (outside the band, or fed only by
// such cells); the traceback stops there.
const negInf = int32(-1 << 29)

// addSequence aligns seq to the graph in ws and threads it in, fusing exact
// matches into existing nodes and adding new nodes elsewhere. It returns the
// DP work statistics. Empty sequences are rejected.
func (g *Graph) addSequence(ws *workspace, seq []byte) (DPStats, error) {
	if len(seq) == 0 {
		return DPStats{}, fmt.Errorf("racon: empty read segment")
	}
	ws.topo(g)
	order := ws.order
	n, m := len(order), len(seq)
	width := m + 1
	ws.score = grow(ws.score, (n+1)*width)
	score := ws.score
	ws.profile, ws.profileAt = ws.profile[:0], [256]int32{}
	for len(ws.unreached) < width {
		ws.unreached = append(ws.unreached, negInf)
	}
	gap := int32(g.scores.Gap)

	// Row 0 (virtual start) is all zeros: a leading stretch of the read
	// may be skipped for free. Window segments are clipped from reads by
	// linear coordinates, so indel drift leaves them with up to a few
	// dozen bases that belong to the neighbouring window; overlap-style
	// freedom at both sequence ends lets those dangle instead of being
	// force-threaded into the graph.
	clear(score[:width])

	// Both the graph suffix and the sequence suffix are free too, so the
	// alignment ends at the best cell anywhere in the matrix — the first
	// maximum in row-major order — and covers the read's true overlap with
	// the window and nothing more. Positive match scores ensure the optimum
	// still extends through the whole matching core.
	bestRow, bestJ, bestScore := 0, 0, int32(0)

	for r, id := range order {
		// Band bookkeeping: a node at topo rank r is roughly at backbone
		// offset r, so restrict j to [r-band, r+band] when banding. A row
		// entirely right of the band has lo = m+1 > hi.
		lo, hi := 1, m
		if g.band > 0 {
			lo, hi = min(max(r-g.band, 1), m+1), min(r+g.band, m)
		}
		node := &g.nodes[id]
		cur := score[(r+1)*width : (r+2)*width]
		// Every cell starts unreachable and, outside the band, stays so.
		// Column 0: leading graph nodes are free (semi-global in the
		// graph dimension), so a read fragment that begins mid-window
		// aligns where it belongs instead of being dragged to the
		// window start.
		copy(cur, ws.unreached)
		cur[0] = 0

		// A cell in the band is the maximum of: per predecessor row, the
		// diagonal plus the substitution score and the cell above plus a
		// gap; then the cell to its left plus a gap. A maximum does not
		// depend on the order it is taken in (which candidate an alignment
		// follows on a tie does, and threadIn decides that), so every
		// predecessor but the last is folded in by a pass with no
		// dependency between cells, and the last — the only one, for most
		// nodes — in the pass that carries the left neighbour along.
		in, sb := cur[lo:hi+1], ws.profileFor(node.base, seq, g.scores)[lo-1:hi]
		sb = sb[:len(in)] // as long already; said so the loops check no bounds
		preds := ws.predRows(node, width)
		last := len(preds) - 1
		for _, p := range preds[:last] {
			diag, up := score[p+lo-1:p+hi], score[p+lo:p+hi+1]
			diag, up = diag[:len(in)], up[:len(in)]
			for i := range in {
				in[i] = max(in[i], diag[i]+sb[i], up[i]+gap)
			}
		}
		// The row's first maximum beats the running best only if strictly
		// greater: together, the first maximum in row-major order.
		top, at := fillRow(in, score[preds[last]+lo-1:preds[last]+hi+1], sb, cur[lo-1], gap)
		if top > bestScore {
			bestScore, bestRow, bestJ = top, r+1, lo+at
		}
	}

	g.threadIn(ws, seq, bestRow, bestJ)
	stats := DPStats{Cells: n * m, Nodes: n}
	if g.band > 0 {
		stats.Cells = n * (2*g.band + 1)
	}
	return stats, nil
}

// fillRow is the pass over the last predecessor row, which carries the left
// neighbour along: in[i] = max(in[i], diag+sb[i], up+gap, left+gap), where
// prev is that row from the column before in's first cell, so prev[i] is
// in[i]'s diagonal and prev[i+1] the cell above it, and left enters as the
// cell before in[0]. It returns the row's first strict maximum and its index
// (negInf and -1 for an empty row). It is kept a leaf of its own: inlined
// into addSequence, its loop state would spill to the stack.
//
//go:noinline
func fillRow(in, prev, sb []int32, left, gap int32) (top int32, at int) {
	top, at = negInf, -1
	diag := prev[0]
	prev, sb = prev[1:][:len(in)], sb[:len(in)]
	for i, v := range in {
		up := prev[i]
		left = max(v, diag+sb[i], up+gap, left+gap)
		in[i] = left
		if left > top {
			top, at = left, i
		}
		diag = up
	}
	return top, at
}

// threadIn walks the traceback from (row, endJ) and mutates the graph:
// matched bases fuse into existing nodes (bumping edge weights along the
// path), mismatches fuse into their column's aligned ring, insertions add
// fresh nodes. The walk stops at the free start (row 0, or sequence
// position 0) or at an unreachable cell, so unaligned read overhangs are
// never threaded.
//
// No move was stored. At each cell the alignment follows the first candidate
// that attains the cell's value, the candidates taken per in-edge in node.in
// order, diagonal before up, and left last — the one a fill that tried them in
// that order and replaced its best on a strict > would have recorded, since
// no earlier candidate can equal the final maximum without being it. So the
// walk re-evaluates them in that order against the stored score; it costs
// O(path x in-degree) and the matrix holds 4 bytes a cell, not 9.
func (g *Graph) threadIn(ws *workspace, seq []byte, row, endJ int) {
	score, width := ws.score, len(seq)+1
	gap := int32(g.scores.Gap)
	// Collect the sequence of node IDs this read traverses, in reverse.
	pathRev := ws.path[:0]
	r, j := row, endJ
walk:
	for r > 0 && j > 0 {
		s := score[r*width+j]
		if s == negInf {
			break
		}
		nodeID := ws.order[r-1]
		node := &g.nodes[nodeID]
		match := node.base == seq[j-1]
		sub := int32(g.scores.Mismatch)
		if match {
			sub = int32(g.scores.Match)
		}
		for _, p := range ws.predRows(node, width) {
			if score[p+j-1]+sub == s { // diagonal: seq[j-1] vs the node
				if !match {
					nodeID = g.alignedNodeFor(nodeID, seq[j-1])
				}
				pathRev = append(pathRev, nodeID)
				r, j = p/width, j-1
				continue walk
			}
			if score[p+j]+gap == s { // gap in seq: pass the node by
				r = p / width
				continue walk
			}
		}
		// Left: insertion, a new node for seq[j-1].
		pathRev = append(pathRev, g.addNode(seq[j-1]))
		j--
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
	ws.path = pathRev
}

// alignedNodeFor returns the node carrying `base` in nodeID's alignment
// column, creating it (and registering it in the column's ring) if absent.
func (g *Graph) alignedNodeFor(nodeID int, base byte) int {
	for _, a := range g.nodes[nodeID].aligned {
		if g.nodes[a].base == base {
			return int(a)
		}
	}
	fresh := g.addNode(base)
	ring := append([]int32{int32(nodeID)}, g.nodes[nodeID].aligned...)
	g.nodes[fresh].aligned = ring
	for _, a := range ring {
		g.nodes[a].aligned = append(g.nodes[a].aligned, int32(fresh))
	}
	return fresh
}

// consensus extracts the heaviest path through the graph, walking it in ws:
// at each node the best-scoring incoming edge chain, seeded by sequence
// starts, exactly as Racon's generateConsensusKernel does on the device.
func (g *Graph) consensus(ws *workspace) []byte {
	ws.topo(g)
	best := make([]int, len(g.nodes))
	from := make([]int, len(g.nodes))
	for i := range from {
		from[i] = -1
	}
	endNode, endScore := -1, -1
	for _, id := range ws.order {
		node := &g.nodes[id]
		best[id] = node.starts
		for _, e := range node.in {
			if v := best[e.to] + e.weight; v > best[id] {
				best[id] = v
				from[id] = e.to
			}
		}
		if best[id] > endScore {
			endScore, endNode = best[id], id
		}
	}
	var rev []byte
	for n := endNode; n >= 0; n = from[n] {
		rev = append(rev, g.nodes[n].base)
	}
	out := make([]byte, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}
