package genomics

import (
	"fmt"
	"math"
	"time"

	"gyan/internal/gpu"
	"gyan/internal/workload"
)

// Stage 3: base-quality score recalibration. The table builder walks every
// aligned base, skips sites the caller flagged as real variants, and tallies
// empirical mismatch rates per sequencing cycle (read-position) bucket. The
// recalibrated quality is the Phred transform of the observed rate — the
// GATK BaseRecalibrator computation with cycle as the covariate.

// BQSR cost model: covariate tallying is a light streaming pass, so both
// backends run faster per unit than alignment or calling.
const (
	bqsrCPUObsPerCorePerSec = 4e6
	bqsrGPUObsPerSec        = 140e6
	// bqsrObsPerByte expands nominal bytes into covariate observations.
	bqsrObsPerByte = 0.5
	bqsrWorkspace  = 512 << 20
	bqsrBatchObs   = 4e9
	bqsrSyncCost   = 6 * time.Millisecond
	// bqsrCycleBuckets is the covariate resolution: reads are split into
	// this many position buckets.
	bqsrCycleBuckets = 8
	// bqsrMaxQ caps recalibrated qualities (a bucket with zero observed
	// mismatches would otherwise be infinite).
	bqsrMaxQ = 60
)

// BQSRParams configures recalibration.
type BQSRParams struct {
	Threads int
	Scale   float64
}

// DefaultBQSRParams returns a 4-thread full-scale run.
func DefaultBQSRParams() BQSRParams { return BQSRParams{Threads: 4, Scale: 1.0} }

func (p BQSRParams) validate() error {
	if p.Threads < 1 {
		return fmt.Errorf("genomics: bqsr: %d threads", p.Threads)
	}
	if p.Scale <= 0 || p.Scale > 1 {
		return fmt.Errorf("genomics: bqsr: scale %v", p.Scale)
	}
	return nil
}

// QualityBucket is one row of the recalibration table.
type QualityBucket struct {
	// Cycle is the bucket index over read positions.
	Cycle int
	// Observations and Mismatches are the tallies behind the rate.
	Observations, Mismatches int
	// Quality is the recalibrated Phred score, -10*log10(rate).
	Quality float64
}

// BQSRResult is the recalibration outcome, the pipeline's terminal product.
type BQSRResult struct {
	// Called is the upstream calling product.
	Called *CallResult
	// Table has one bucket per sequencing-cycle bin.
	Table []QualityBucket
	// MeanQuality is the observation-weighted mean recalibrated quality.
	MeanQuality float64
	// Timing is the virtual-time breakdown; GPUUsed the backend flag.
	Timing   StageTiming
	GPUUsed  bool
	Sessions []*gpu.Stream
}

// Recalibrate builds the quality table from the called alignments. A nil
// called input runs the two upstream stages internally (the crash-recovery
// pass-through path).
func Recalibrate(called *CallResult, rs *workload.ReadSet, p BQSRParams, env gpu.Env) (*BQSRResult, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if called == nil {
		var err error
		if called, err = Call(nil, rs, DefaultCallParams(), gpu.Env{}); err != nil {
			return nil, err
		}
	}
	rs = called.Aligned.Set
	useGPU := env.Cluster != nil && len(env.Devices) > 0
	res := &BQSRResult{Called: called, GPUUsed: useGPU}

	variant := make(map[int]bool, len(called.Variants))
	for _, v := range called.Variants {
		variant[v.Pos] = true
	}
	ref := rs.Reference.Bases
	obs := make([]int, bqsrCycleBuckets)
	mis := make([]int, bqsrCycleBuckets)
	for _, a := range called.Aligned.Alignments {
		read := rs.Reads[a.Read].Bases
		for i := 0; i < a.Len; i++ {
			pos := a.Pos + i
			if pos >= len(ref) || variant[pos] {
				continue
			}
			bucket := i * bqsrCycleBuckets / len(read)
			if bucket >= bqsrCycleBuckets {
				bucket = bqsrCycleBuckets - 1
			}
			obs[bucket]++
			if read[i] != ref[pos] {
				mis[bucket]++
			}
		}
	}
	var qSum float64
	var qObs int
	res.Table = make([]QualityBucket, bqsrCycleBuckets)
	for b := range res.Table {
		q := float64(bqsrMaxQ)
		if obs[b] > 0 && mis[b] > 0 {
			if pq := -10 * math.Log10(float64(mis[b])/float64(obs[b])); pq < q {
				q = pq
			}
		}
		res.Table[b] = QualityBucket{
			Cycle: b, Observations: obs[b], Mismatches: mis[b], Quality: q,
		}
		qSum += q * float64(obs[b])
		qObs += obs[b]
	}
	if qObs > 0 {
		res.MeanQuality = qSum / float64(qObs)
	}

	scaledBytes := float64(rs.NominalBytes) * p.Scale
	units := scaledBytes * bqsrObsPerByte
	res.Timing.IO = time.Duration(scaledBytes / ioBandwidth * float64(time.Second))
	if !useGPU {
		secs := units / (bqsrCPUObsPerCorePerSec * float64(p.Threads))
		res.Timing.Compute = time.Duration(secs * float64(time.Second))
		return res, nil
	}
	st := gpuStage{
		kernels:      []string{"covariate_tally", "table_reduce"},
		unitsPerSec:  bqsrGPUObsPerSec,
		bytesPerUnit: 1 / bqsrObsPerByte,
		workspace:    bqsrWorkspace,
		batchUnits:   bqsrBatchObs,
		syncCost:     bqsrSyncCost,
	}
	sessions, err := st.run(&res.Timing, units, env)
	if err != nil {
		return nil, err
	}
	res.Sessions = sessions
	return res, nil
}
