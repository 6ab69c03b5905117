package galaxy

import (
	"fmt"
	"testing"

	"gyan/internal/bioseq"
	"gyan/internal/tools/bonito"
	"gyan/internal/tools/racon"
	"gyan/internal/workload"
)

// TestExecutorOutputGolden pins what the three tools whose host kernels are
// written for speed (bit-vector edit distance, library-counted GC, direct
// convolution) answer on the inputs the server and the benchmark give them.
// The lines are compared as strings, and so are the numbers behind them at
// full precision, so a drift cannot hide inside a tolerance: a faster kernel
// must decode the same bases and polish to the same identity.
func TestExecutorOutputGolden(t *testing.T) {
	squiggles, err := workload.AcinetobacterPittii(42)
	if err != nil {
		t.Fatal(err)
	}
	nfl, err := workload.AlzheimersNFL(42)
	if err != nil {
		t.Fatal(err)
	}
	// batch_drain's read set (bench/w_inproc.go).
	tiny, err := workload.GenerateLongReads(workload.LongReadConfig{
		Name: "bench_reads", Seed: 42, RefLen: 240, ReadLen: 80, Coverage: 2,
		SubRate: 0.02, InsRate: 0.03, DelRate: 0.03, BackboneErrorRate: 0.04,
		NominalBytes: 17 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		exec    Executor
		dataset any
		scale   string
		want    string
		detail  string
	}{
		{"bonito", BonitoExecutor, squiggles, "0.001",
			"basecalled 40 reads: mean identity 0.9982", "identity 0.99819648980216047, 14350976 real FLOPs"},
		{"seqstats", SeqStatsExecutor, nfl, "",
			"600 reads, 605903 bases, len 797-1226 (mean 1010), N50 1025, GC 0.500", "mean 1009.8383333333334, GC 0.50025169045210205"},
		{"racon", RaconExecutor, tiny, "0.004",
			"polished 1 windows: identity 0.9708 -> 0.9671", "identity 0.97083333333333333 -> 0.96707818930041156"},
	}
	g := testGalaxy(t)
	for _, tc := range cases {
		b, err := g.Tool(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		dict, err := BuildParamDict(b.XML, map[string]string{"scale": tc.scale}, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tc.exec(ExecRequest{Params: dict, Dataset: tc.dataset})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Output != tc.want {
			t.Errorf("%s answers %q, want %q", tc.name, res.Output, tc.want)
		}
		var detail string
		switch d := res.Detail.(type) {
		case *bonito.Result:
			detail = fmt.Sprintf("identity %.17g, %d real FLOPs", d.MeanIdentity, d.RealFLOPs)
		case bioseq.SetStats:
			detail = fmt.Sprintf("mean %.17g, GC %.17g", d.MeanLen, d.GC)
		case *racon.Result:
			detail = fmt.Sprintf("identity %.17g -> %.17g", d.DraftIdentity, d.PolishedIdentity)
		}
		if detail != tc.detail {
			t.Errorf("%s detail %q, want %q", tc.name, detail, tc.detail)
		}
	}
}
