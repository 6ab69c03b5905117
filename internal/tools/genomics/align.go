package genomics

import (
	"fmt"
	"time"

	"gyan/internal/gpu"
	"gyan/internal/workload"
)

// Stage 1: BWA-MEM-style alignment, the titan/G3SA offload target. The
// real work anchors each read near its sampled origin and picks the offset
// with the most matching bases (a gapless stand-in for seed-and-extend);
// the cost model charges the full seed/chain/extend pipeline.

// Alignment cost model. A 12-core BWA-MEM2 run sustains on the order of
// 1e6 read-bases per second per core on short-read data; the G3SA-class
// GPU path reports ~70x over that on 4 cards, so a single device lands
// near 20x a desktop CPU.
const (
	alignCPUBasesPerCorePerSec = 1.2e6
	alignGPUBasesPerSec        = 95e6
	// alignBasesPerByte expands nominal dataset bytes into modeled
	// read-bases (FASTQ carries ~2 bytes per base with qualities).
	alignBasesPerByte = 0.5
	alignWorkspace    = 2048 << 20
	alignBatchBases   = 2e9
	alignSyncCost     = 8 * time.Millisecond
	// anchorShift bounds the offset search around each read's annotated
	// origin.
	anchorShift = 24
)

// AlignParams configures the aligner.
type AlignParams struct {
	// Threads is the host thread count (CPU backend).
	Threads int
	// Scale is the fraction of the dataset's NominalBytes the cost model
	// simulates.
	Scale float64
}

// DefaultAlignParams returns a 4-thread full-scale run.
func DefaultAlignParams() AlignParams { return AlignParams{Threads: 4, Scale: 1.0} }

func (p AlignParams) validate() error {
	if p.Threads < 1 {
		return fmt.Errorf("genomics: align: %d threads", p.Threads)
	}
	if p.Scale <= 0 || p.Scale > 1 {
		return fmt.Errorf("genomics: align: scale %v", p.Scale)
	}
	return nil
}

// Alignment is one read's placement on the reference.
type Alignment struct {
	// Read indexes into the set's Reads.
	Read int
	// Pos is the chosen reference offset.
	Pos int
	// Matches of Len aligned bases agree with the reference.
	Matches, Len int
}

// Identity returns the alignment's matching fraction.
func (a Alignment) Identity() float64 {
	if a.Len == 0 {
		return 0
	}
	return float64(a.Matches) / float64(a.Len)
}

// AlignResult is the aligner's outcome; it doubles as the downstream
// stages' input (AlignedReads).
type AlignResult struct {
	// Set is the aligned read set.
	Set *workload.ReadSet
	// Alignments hold one entry per read, in input order.
	Alignments []Alignment
	// MeanIdentity is the mean alignment identity.
	MeanIdentity float64
	// Timing is the virtual-time breakdown; GPUUsed the backend flag.
	Timing   StageTiming
	GPUUsed  bool
	Sessions []*gpu.Stream
}

// Align maps every read of the set onto the reference.
func Align(rs *workload.ReadSet, p AlignParams, env gpu.Env) (*AlignResult, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if err := checkSet(rs, "align"); err != nil {
		return nil, err
	}
	useGPU := env.Cluster != nil && len(env.Devices) > 0
	res := &AlignResult{
		Set: rs, GPUUsed: useGPU,
		Alignments: make([]Alignment, len(rs.Reads)),
	}
	ref := rs.Reference.Bases
	var idSum float64
	for i, read := range rs.Reads {
		res.Alignments[i] = alignRead(i, read.Bases, ref, rs.Starts[i])
		idSum += res.Alignments[i].Identity()
	}
	res.MeanIdentity = idSum / float64(len(res.Alignments))

	scaledBytes := float64(rs.NominalBytes) * p.Scale
	bases := scaledBytes * alignBasesPerByte
	res.Timing.IO = time.Duration(scaledBytes / ioBandwidth * float64(time.Second))
	if !useGPU {
		secs := bases / (alignCPUBasesPerCorePerSec * float64(p.Threads))
		res.Timing.Compute = time.Duration(secs * float64(time.Second))
		return res, nil
	}
	st := gpuStage{
		kernels:      []string{"smem_seed", "chain_filter", "sw_extend"},
		unitsPerSec:  alignGPUBasesPerSec,
		bytesPerUnit: 1 / alignBasesPerByte,
		workspace:    alignWorkspace,
		batchUnits:   alignBatchBases,
		syncCost:     alignSyncCost,
	}
	sessions, err := st.run(&res.Timing, bases, env)
	if err != nil {
		return nil, err
	}
	res.Sessions = sessions
	return res, nil
}

// alignRead finds the gapless offset near the annotated origin with the
// most matching bases.
func alignRead(idx int, read, ref []byte, origin int) Alignment {
	best := Alignment{Read: idx, Pos: origin, Len: len(read)}
	for shift := -anchorShift; shift <= anchorShift; shift++ {
		pos := origin + shift
		if pos < 0 {
			continue
		}
		n := len(read)
		if pos+n > len(ref) {
			n = len(ref) - pos
		}
		if n <= 0 {
			continue
		}
		matches := 0
		for i := 0; i < n; i++ {
			if read[i] == ref[pos+i] {
				matches++
			}
		}
		if matches > best.Matches {
			best.Matches, best.Pos, best.Len = matches, pos, n
		}
	}
	return best
}
