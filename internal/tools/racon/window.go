package racon

import (
	"fmt"

	"gyan/internal/bioseq"
)

// Window-based polishing. Racon splits the backbone into fixed-length
// windows, collects the read fragments overlapping each window, and builds
// one POA per window. Windows are the unit of batching on the GPU (each
// window is one POA problem inside generatePOAKernel).

// Window is one polishing unit.
type Window struct {
	// Index is the window's ordinal position along the backbone.
	Index int
	// Start and End are backbone coordinates (half-open).
	Start, End int
	// Backbone is the draft segment to polish.
	Backbone []byte
	// Segments are the read fragments overlapping this window.
	Segments [][]byte
}

// minSegmentLen discards read fragments too short to inform the consensus.
const minSegmentLen = 20

// BuildWindows cuts the backbone into windows of length windowLen and
// distributes mapped read fragments among them.
func BuildWindows(backbone bioseq.Seq, reads []bioseq.Seq, mappings []Mapping, windowLen int) ([]Window, error) {
	if windowLen <= 0 {
		return nil, fmt.Errorf("racon: window length %d", windowLen)
	}
	if backbone.Len() == 0 {
		return nil, fmt.Errorf("racon: empty backbone")
	}
	n := (backbone.Len() + windowLen - 1) / windowLen
	windows := make([]Window, n)
	for i := range windows {
		start := i * windowLen
		end := start + windowLen
		if end > backbone.Len() {
			end = backbone.Len()
		}
		windows[i] = Window{
			Index:    i,
			Start:    start,
			End:      end,
			Backbone: backbone.Bases[start:end],
		}
	}
	for _, m := range mappings {
		read := reads[m.ReadIndex]
		rStart := m.Start
		rEnd := rStart + read.Len()
		if rEnd > backbone.Len() {
			rEnd = backbone.Len()
		}
		for wi := rStart / windowLen; wi < n && wi*windowLen < rEnd; wi++ {
			w := &windows[wi]
			// Clip the read to the window in backbone coordinates, then
			// translate to read coordinates.
			from := w.Start
			if rStart > from {
				from = rStart
			}
			to := w.End
			if rEnd < to {
				to = rEnd
			}
			segFrom := from - rStart
			segTo := to - rStart
			if segTo > read.Len() {
				segTo = read.Len()
			}
			if segTo-segFrom < minSegmentLen {
				continue
			}
			w.Segments = append(w.Segments, read.Bases[segFrom:segTo])
		}
	}
	return windows, nil
}

// PolishWindow builds the POA for one window and returns its consensus,
// along with the DP work performed. Windows with no read support return the
// backbone unchanged (nothing to polish with).
func PolishWindow(w Window, scores bioseq.AlignScores, band int) ([]byte, DPStats, error) {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	return polishWindow(ws, w, scores, band)
}

// polishWindow is PolishWindow in ws.
func polishWindow(ws *workspace, w Window, scores bioseq.AlignScores, band int) ([]byte, DPStats, error) {
	if len(w.Segments) == 0 {
		return w.Backbone, DPStats{}, nil
	}
	g, err := NewGraph(w.Backbone, scores, band)
	if err != nil {
		return nil, DPStats{}, fmt.Errorf("racon: window %d: %w", w.Index, err)
	}
	var total DPStats
	for _, seg := range w.Segments {
		st, err := g.addSequence(ws, seg)
		if err != nil {
			return nil, DPStats{}, fmt.Errorf("racon: window %d: %w", w.Index, err)
		}
		total.Cells += st.Cells
		total.Nodes = st.Nodes
	}
	return g.consensus(ws), total, nil
}
