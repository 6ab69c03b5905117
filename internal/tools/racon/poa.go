// Package racon reimplements the Racon consensus tool the paper evaluates:
// window-based polishing of a draft assembly using partial-order alignment
// (POA) of long reads, with optional banded alignment ("banding
// approximation") and batched execution.
//
// The algorithm is real — the CPU and simulated-GPU backends produce
// identical consensus sequences — while execution time is charged to the
// simulation's virtual clock using the models in model.go, calibrated
// against the paper's Section VI measurements.
package racon

import (
	"fmt"

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
// it with the backbone window), fold reads in with AddSequence, and extract
// the polished window with Consensus.
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
	g := &Graph{scores: scores, band: band}
	prev := -1
	for _, b := range backbone {
		id := g.addNode(b)
		if prev >= 0 {
			g.addEdge(prev, id, 1)
		} else {
			g.nodes[id].starts++
		}
		prev = id
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

// DPStats reports the dynamic-programming work done by an alignment, which
// feeds the backends' cost models.
type DPStats struct {
	// Cells is the number of DP matrix cells evaluated.
	Cells int
	// Nodes is the graph size at alignment time.
	Nodes int
}

// AddSequence aligns seq to the graph and threads it in, fusing exact
// matches into existing nodes and adding new nodes elsewhere. It returns the
// DP work statistics. Empty sequences are rejected.
func (g *Graph) AddSequence(seq []byte) (DPStats, error) {
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

	g.threadIn(seq, order, score, moveKind, movePred, bestRow, bestJ, width)
	stats := DPStats{Cells: 0, Nodes: n}
	if g.band > 0 {
		stats.Cells = n * (2*g.band + 1)
	} else {
		stats.Cells = n * m
	}
	return stats, nil
}

// threadIn walks the traceback from (row, endJ) and mutates the graph:
// matched bases fuse into existing nodes (bumping edge weights along the
// path), mismatches fuse into their column's aligned ring, insertions add
// fresh nodes. The walk stops at the free start (row 0, or sequence
// position 0), so unaligned read overhangs are never threaded.
func (g *Graph) threadIn(seq []byte, order []int, score []int32, moveKind []int8, movePred []int32, row, endJ, width int) {
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

// Consensus extracts the heaviest path through the graph: at each node the
// best-scoring incoming edge chain, seeded by sequence starts, exactly as
// Racon's generateConsensusKernel does on the device.
func (g *Graph) Consensus() []byte {
	order := g.topoOrder()
	best := make([]int, len(g.nodes))
	from := make([]int, len(g.nodes))
	for i := range from {
		from[i] = -1
	}
	endNode, endScore := -1, -1
	for _, id := range order {
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
