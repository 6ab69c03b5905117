package genomics

import (
	"testing"

	"gyan/internal/gpu"
	"gyan/internal/workload"
)

func smallSet(t testing.TB) *workload.ReadSet {
	t.Helper()
	rs, err := workload.GenerateLongReads(workload.LongReadConfig{
		Name: "wgs", Seed: 11, RefLen: 1500, ReadLen: 150, Coverage: 8,
		SubRate: 0.01, InsRate: 0, DelRate: 0, BackboneErrorRate: 0.02,
		NominalBytes: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func gpuEnv(t testing.TB, proc string) gpu.Env {
	t.Helper()
	c := gpu.NewPaperTestbed(nil)
	return gpu.Env{Cluster: c, Devices: []int{0}, PID: c.NextPID(), ProcName: proc}
}

func TestAlignRecoversReadOrigins(t *testing.T) {
	rs := smallSet(t)
	res, err := Align(rs, DefaultAlignParams(), gpu.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alignments) != len(rs.Reads) {
		t.Fatalf("%d alignments for %d reads", len(res.Alignments), len(rs.Reads))
	}
	if res.MeanIdentity < 0.95 {
		t.Errorf("mean identity %.3f for 1%% substitution reads", res.MeanIdentity)
	}
	for i, a := range res.Alignments {
		diff := a.Pos - rs.Starts[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > anchorShift {
			t.Errorf("read %d placed at %d, true start %d", i, a.Pos, rs.Starts[i])
		}
	}
	if res.Timing.Compute <= 0 || res.Timing.IO <= 0 {
		t.Errorf("degenerate CPU timing %+v", res.Timing)
	}
}

// The generator plants backbone errors at sites where the draft disagrees
// with the reference the reads were sampled from; the caller should recover
// most of them and invent few others.
func TestCallFindsPlantedBackboneErrors(t *testing.T) {
	rs := smallSet(t)
	res, err := Call(nil, rs, DefaultCallParams(), gpu.Env{})
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[int]bool)
	span := len(rs.Backbone.Bases)
	if r := len(rs.Reference.Bases); r < span {
		span = r
	}
	for pos := 0; pos < span; pos++ {
		if rs.Backbone.Bases[pos] != rs.Reference.Bases[pos] {
			truth[pos] = true
		}
	}
	if len(truth) == 0 {
		t.Fatal("generator planted no backbone errors")
	}
	hits := 0
	for _, v := range res.Variants {
		if truth[v.Pos] {
			hits++
		}
	}
	if recall := float64(hits) / float64(len(truth)); recall < 0.8 {
		t.Errorf("recall %.2f: %d/%d planted errors called", recall, hits, len(truth))
	}
	if len(res.Variants) > 0 {
		if precision := float64(hits) / float64(len(res.Variants)); precision < 0.8 {
			t.Errorf("precision %.2f: %d/%d calls are planted errors",
				precision, hits, len(res.Variants))
		}
	}
}

func TestRecalibrateBuildsSaneTable(t *testing.T) {
	rs := smallSet(t)
	res, err := Recalibrate(nil, rs, DefaultBQSRParams(), gpu.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table) != bqsrCycleBuckets {
		t.Fatalf("%d table rows, want %d", len(res.Table), bqsrCycleBuckets)
	}
	var totalObs int
	for _, b := range res.Table {
		totalObs += b.Observations
		if b.Mismatches > b.Observations {
			t.Errorf("bucket %d: %d mismatches of %d observations", b.Cycle, b.Mismatches, b.Observations)
		}
		if b.Quality <= 0 || b.Quality > bqsrMaxQ {
			t.Errorf("bucket %d: quality %.1f out of range", b.Cycle, b.Quality)
		}
	}
	if totalObs == 0 {
		t.Fatal("empty recalibration table")
	}
	// 1% substitutions should recalibrate near Q20; variant-site exclusion
	// keeps planted backbone errors from dragging the estimate down.
	if res.MeanQuality < 15 || res.MeanQuality > 30 {
		t.Errorf("mean recalibrated quality %.1f, want ~Q20 for 1%% error reads", res.MeanQuality)
	}
}

func TestGPUAndCPUPipelinesAgree(t *testing.T) {
	rs := smallSet(t)
	cpuRes, err := Recalibrate(nil, rs, DefaultBQSRParams(), gpu.Env{})
	if err != nil {
		t.Fatal(err)
	}
	aligned, err := Align(rs, DefaultAlignParams(), gpuEnv(t, "/usr/bin/bwa-mem-gpu"))
	if err != nil {
		t.Fatal(err)
	}
	called, err := Call(aligned, nil, DefaultCallParams(), gpuEnv(t, "/usr/bin/vcall-gpu"))
	if err != nil {
		t.Fatal(err)
	}
	gpuRes, err := Recalibrate(called, nil, DefaultBQSRParams(), gpuEnv(t, "/usr/bin/bqsr-gpu"))
	if err != nil {
		t.Fatal(err)
	}
	if !aligned.GPUUsed || !called.GPUUsed || !gpuRes.GPUUsed {
		t.Fatal("GPU flag not set on all stages")
	}
	if len(called.Variants) != len(cpuRes.Called.Variants) {
		t.Fatalf("backends call %d vs %d variants", len(called.Variants), len(cpuRes.Called.Variants))
	}
	for i := range gpuRes.Table {
		if gpuRes.Table[i] != cpuRes.Table[i] {
			t.Fatalf("table row %d differs between backends", i)
		}
	}
	// The offloads must beat the CPU cost model on every stage.
	for _, pair := range []struct {
		name     string
		gpu, cpu StageTiming
	}{
		{"align", aligned.Timing, cpuRes.Called.Aligned.Timing},
		{"call", called.Timing, cpuRes.Called.Timing},
		{"bqsr", gpuRes.Timing, cpuRes.Timing},
	} {
		if pair.gpu.Total() >= pair.cpu.Total() {
			t.Errorf("%s: GPU %v not faster than CPU %v", pair.name, pair.gpu.Total(), pair.cpu.Total())
		}
	}
}

func TestKeepOpenReturnsSessions(t *testing.T) {
	rs := smallSet(t)
	env := gpuEnv(t, "/usr/bin/bwa-mem-gpu")
	env.KeepOpen = true
	res, err := Align(rs, DefaultAlignParams(), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) != 1 {
		t.Fatalf("%d sessions, want 1", len(res.Sessions))
	}
	for _, s := range res.Sessions {
		s.Close()
	}
}
