package genomics

import (
	"fmt"
	"time"

	"gyan/internal/gpu"
	"gyan/internal/workload"
)

// Stage 2: variant calling. The pipeline's draft assembly (the set's
// Backbone) stands in for the sample's current consensus; a pileup over the
// aligned reads votes per reference position, and every site where the
// votes contradict the draft is a called variant — which is exactly where
// the generator injected backbone errors, so calls are checkable against
// ground truth.

// Variant-calling cost model: pileup construction plus per-site genotyping.
// HaplotypeCaller-class CPU callers process ~1e6 pileup cells per second
// per core; the Parabricks-style GPU path runs tens of times faster.
const (
	callCPUCellsPerCorePerSec = 1.1e6
	callGPUCellsPerSec        = 55e6
	// callCellsPerByte expands nominal bytes into modeled pileup cells
	// (every aligned base lands in one cell).
	callCellsPerByte = 0.5
	callWorkspace    = 1024 << 20
	callBatchCells   = 1.5e9
	callSyncCost     = 10 * time.Millisecond
)

// CallParams configures the caller.
type CallParams struct {
	Threads int
	Scale   float64
	// MinDepth is the minimum pileup depth to call a site.
	MinDepth int
}

// DefaultCallParams returns a 4-thread full-scale run calling at depth 3.
func DefaultCallParams() CallParams { return CallParams{Threads: 4, Scale: 1.0, MinDepth: 3} }

func (p CallParams) validate() error {
	if p.Threads < 1 {
		return fmt.Errorf("genomics: call: %d threads", p.Threads)
	}
	if p.Scale <= 0 || p.Scale > 1 {
		return fmt.Errorf("genomics: call: scale %v", p.Scale)
	}
	if p.MinDepth < 1 {
		return fmt.Errorf("genomics: call: min depth %d", p.MinDepth)
	}
	return nil
}

// Variant is one called site.
type Variant struct {
	// Pos is the reference position.
	Pos int
	// Draft is the draft (backbone) base; Alt the pileup consensus.
	Draft, Alt byte
	// Depth is the pileup depth at the site.
	Depth int
}

// CallResult is the caller's outcome and the BQSR stage's input.
type CallResult struct {
	// Aligned is the upstream alignment product.
	Aligned *AlignResult
	// Variants are the called sites in position order.
	Variants []Variant
	// Sites is the number of pileup positions inspected.
	Sites int
	// Timing is the virtual-time breakdown; GPUUsed the backend flag.
	Timing   StageTiming
	GPUUsed  bool
	Sessions []*gpu.Stream
}

// Call genotypes the aligned reads against the draft assembly. A nil
// aligned input realigns internally (the crash-recovery pass-through path,
// where the upstream stage's in-memory result did not survive).
func Call(aligned *AlignResult, rs *workload.ReadSet, p CallParams, env gpu.Env) (*CallResult, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if aligned == nil {
		var err error
		if aligned, err = Align(rs, DefaultAlignParams(), gpu.Env{}); err != nil {
			return nil, err
		}
	}
	rs = aligned.Set
	if len(rs.Backbone.Bases) == 0 {
		return nil, fmt.Errorf("genomics: call: read set has no draft assembly")
	}
	useGPU := env.Cluster != nil && len(env.Devices) > 0
	res := &CallResult{Aligned: aligned, GPUUsed: useGPU}

	// Pileup vote per reference position over the gapless alignments.
	span := len(rs.Backbone.Bases)
	if r := len(rs.Reference.Bases); r < span {
		span = r
	}
	depth := make([]int, span)
	votes := make([]map[byte]int, span)
	for _, a := range aligned.Alignments {
		read := rs.Reads[a.Read].Bases
		for i := 0; i < a.Len && a.Pos+i < span; i++ {
			pos := a.Pos + i
			if votes[pos] == nil {
				votes[pos] = make(map[byte]int, 4)
			}
			votes[pos][read[i]]++
			depth[pos]++
		}
	}
	res.Sites = span
	for pos := 0; pos < span; pos++ {
		if depth[pos] < p.MinDepth {
			continue
		}
		var cons byte
		best := 0
		for b, n := range votes[pos] {
			if n > best || (n == best && b < cons) {
				cons, best = b, n
			}
		}
		if draft := rs.Backbone.Bases[pos]; cons != draft {
			res.Variants = append(res.Variants, Variant{
				Pos: pos, Draft: draft, Alt: cons, Depth: depth[pos],
			})
		}
	}

	scaledBytes := float64(rs.NominalBytes) * p.Scale
	cells := scaledBytes * callCellsPerByte
	res.Timing.IO = time.Duration(scaledBytes / ioBandwidth * float64(time.Second))
	if !useGPU {
		secs := cells / (callCPUCellsPerCorePerSec * float64(p.Threads))
		res.Timing.Compute = time.Duration(secs * float64(time.Second))
		return res, nil
	}
	st := gpuStage{
		kernels:      []string{"pileup_build", "genotype_sites"},
		unitsPerSec:  callGPUCellsPerSec,
		bytesPerUnit: 1 / callCellsPerByte,
		workspace:    callWorkspace,
		batchUnits:   callBatchCells,
		syncCost:     callSyncCost,
	}
	sessions, err := st.run(&res.Timing, cells, env)
	if err != nil {
		return nil, err
	}
	res.Sessions = sessions
	return res, nil
}
