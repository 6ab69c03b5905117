package paswas

import (
	"testing"
	"testing/quick"

	"gyan/internal/bioseq"
	"gyan/internal/gpu"
	"gyan/internal/nvprof"
	"gyan/internal/sim"
	"gyan/internal/workload"
)

func mustSeq(t *testing.T, id, bases string) bioseq.Seq {
	t.Helper()
	s := bioseq.Seq{ID: id, Bases: []byte(bases)}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAlignPerfectSubstring(t *testing.T) {
	target := mustSeq(t, "t", "TTTTACGTACGTTTTT")
	query := mustSeq(t, "q", "ACGTACGT")
	hit, err := Align(query, target, DefaultScores())
	if err != nil {
		t.Fatal(err)
	}
	if hit.Score != 8*DefaultScores().Match {
		t.Errorf("score = %d, want %d", hit.Score, 8*DefaultScores().Match)
	}
	if hit.TargetStart != 4 || hit.TargetEnd != 12 {
		t.Errorf("target interval = %d-%d, want 4-12", hit.TargetStart, hit.TargetEnd)
	}
	if hit.QueryStart != 0 || hit.QueryEnd != 8 {
		t.Errorf("query interval = %d-%d, want 0-8", hit.QueryStart, hit.QueryEnd)
	}
	if hit.Identity() != 1 {
		t.Errorf("identity = %v", hit.Identity())
	}
}

func TestAlignLocalIgnoresFlanks(t *testing.T) {
	// Local alignment must pick out the shared core despite dissimilar
	// flanks.
	target := mustSeq(t, "t", "CCCCCCCCGGGGATTTTACGTACGTACGTAAAA")
	query := mustSeq(t, "q", "GGGGGGGGACGTACGTACGTGGGGGGG")
	hit, err := Align(query, target, DefaultScores())
	if err != nil {
		t.Fatal(err)
	}
	if hit.Matches < 12 {
		t.Errorf("found only %d matches for a 12-base shared core", hit.Matches)
	}
	// With match +5 / mismatch -3 the optimum may extend through a few
	// mismatches to capture flank matches; identity stays well above the
	// random baseline but below 1.
	if hit.Identity() < 0.7 {
		t.Errorf("identity = %v", hit.Identity())
	}
}

func TestAlignDissimilarSequencesScoreNearZero(t *testing.T) {
	target := mustSeq(t, "t", "AAAAAAAAAA")
	query := mustSeq(t, "q", "TTTTTTTTTT")
	hit, err := Align(query, target, DefaultScores())
	if err != nil {
		t.Fatal(err)
	}
	if hit.Score != 0 {
		t.Errorf("all-mismatch score = %d, want 0", hit.Score)
	}
	if hit.Length != 0 {
		t.Errorf("all-mismatch alignment length = %d", hit.Length)
	}
}

func TestAlignValidation(t *testing.T) {
	q := mustSeq(t, "q", "ACGT")
	if _, err := Align(q, bioseq.Seq{ID: "t"}, DefaultScores()); err == nil {
		t.Error("empty target accepted")
	}
	bad := []Scores{
		{Match: 0, Mismatch: -1, Gap: -1},
		{Match: 1, Mismatch: 1, Gap: -1},
		{Match: 1, Mismatch: -1, Gap: 0},
	}
	for i, sc := range bad {
		if _, err := Align(q, q, sc); err == nil {
			t.Errorf("bad scores %d accepted", i)
		}
	}
}

// Property: the SW score is symmetric for linear gaps, non-negative, and
// bounded by match * min(len).
func TestAlignScoreProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		mk := func(id string, n int) bioseq.Seq {
			b := make([]byte, n)
			for i := range b {
				b[i] = bioseq.Alphabet[rng.Intn(4)]
			}
			return bioseq.Seq{ID: id, Bases: b}
		}
		a := mk("a", 1+rng.Intn(60))
		b := mk("b", 1+rng.Intn(60))
		sc := DefaultScores()
		h1, err := Align(a, b, sc)
		if err != nil {
			return false
		}
		h2, err := Align(b, a, sc)
		if err != nil {
			return false
		}
		minLen := a.Len()
		if b.Len() < minLen {
			minLen = b.Len()
		}
		return h1.Score == h2.Score && h1.Score >= 0 && h1.Score <= sc.Match*minLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func smallSet(t testing.TB) *workload.ReadSet {
	t.Helper()
	rs, err := workload.GenerateLongReads(workload.LongReadConfig{
		Name: "paswas", Seed: 9, RefLen: 1500, ReadLen: 200, Coverage: 5,
		SubRate: 0.02, InsRate: 0.02, DelRate: 0.02, BackboneErrorRate: 0.03,
		NominalBytes: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestRunAlignsAllReads(t *testing.T) {
	rs := smallSet(t)
	res, err := Run(rs, DefaultParams(), gpu.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != len(rs.Reads) {
		t.Fatalf("%d hits for %d reads", len(res.Hits), len(rs.Reads))
	}
	if res.MeanIdentity < 0.9 {
		t.Errorf("mean identity %.3f for ~6%% error reads", res.MeanIdentity)
	}
	if res.RealCells == 0 {
		t.Error("no DP work recorded")
	}
	// Hits should land near the reads' true origins.
	for i := 0; i < 10; i++ {
		diff := res.Hits[i].TargetStart - rs.Starts[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > 30 {
			t.Errorf("read %d aligned at %d, true start %d", i, res.Hits[i].TargetStart, rs.Starts[i])
		}
	}
}

func TestGPUAndCPUHitsIdentical(t *testing.T) {
	rs := smallSet(t)
	cpuRes, err := Run(rs, DefaultParams(), gpu.Env{})
	if err != nil {
		t.Fatal(err)
	}
	c := gpu.NewPaperTestbed(nil)
	gpuRes, err := Run(rs, DefaultParams(), gpu.Env{
		Cluster: c, Devices: []int{0}, PID: c.NextPID(), ProcName: "/usr/bin/pypaswas",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cpuRes.Hits {
		if cpuRes.Hits[i] != gpuRes.Hits[i] {
			t.Fatalf("hit %d differs between backends", i)
		}
	}
	if !gpuRes.GPUUsed {
		t.Error("GPU flag not set")
	}
}

// Calibration: the paper's motivating 33x speedup.
func TestPyPaSWASSpeedupCalibration(t *testing.T) {
	rs := smallSet(t) // NominalBytes = 1 GiB
	cpuRes, err := Run(rs, DefaultParams(), gpu.Env{})
	if err != nil {
		t.Fatal(err)
	}
	c := gpu.NewPaperTestbed(nil)
	gpuRes, err := Run(rs, DefaultParams(), gpu.Env{
		Cluster: c, Devices: []int{0}, PID: c.NextPID(), ProcName: "/usr/bin/pypaswas",
	})
	if err != nil {
		t.Fatal(err)
	}
	speedup := cpuRes.Timing.Total().Seconds() / gpuRes.Timing.Total().Seconds()
	if speedup < 28 || speedup > 38 {
		t.Errorf("GPU speedup = %.1fx, paper cites 33x for PyPaSWAS", speedup)
	}
}

func TestRunValidation(t *testing.T) {
	rs := smallSet(t)
	if _, err := Run(nil, DefaultParams(), gpu.Env{}); err == nil {
		t.Error("nil set accepted")
	}
	p := DefaultParams()
	p.Threads = 0
	if _, err := Run(rs, p, gpu.Env{}); err == nil {
		t.Error("zero threads accepted")
	}
	p = DefaultParams()
	p.Scale = 0
	if _, err := Run(rs, p, gpu.Env{}); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestProfilerSeesPaSWASKernels(t *testing.T) {
	rs := smallSet(t)
	c := gpu.NewPaperTestbed(nil)
	prof := nvprof.New()
	_, err := Run(rs, DefaultParams(), gpu.Env{
		Cluster: c, Devices: []int{0}, PID: c.NextPID(),
		ProcName: "/usr/bin/pypaswas", Profiler: prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, h := range prof.KernelHotspots() {
		names[h.Name] = true
	}
	for _, want := range []string{"calculate_score", "traceback"} {
		if !names[want] {
			t.Errorf("profile missing kernel %q", want)
		}
	}
}

func TestKeepOpenSessions(t *testing.T) {
	rs := smallSet(t)
	c := gpu.NewPaperTestbed(nil)
	res, err := Run(rs, DefaultParams(), gpu.Env{
		Cluster: c, Devices: []int{1}, PID: c.NextPID(),
		ProcName: "/usr/bin/pypaswas", KeepOpen: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := c.Device(1)
	if d.ProcessCount() != 1 {
		t.Fatal("process not resident with KeepOpen")
	}
	for _, s := range res.Sessions {
		s.Close()
	}
	if d.ProcessCount() != 0 {
		t.Fatal("session close did not detach")
	}
}
