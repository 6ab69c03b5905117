package gyan

// Micro-benchmarks of the kernels and substrates (`make bench`). End-to-end
// and per-layer performance numbers come from `go run ./bench`.

import (
	"testing"

	"gyan/internal/bioseq"
	"gyan/internal/gpu"
	"gyan/internal/sim"
	"gyan/internal/smi"
	"gyan/internal/tools/bonito"
	"gyan/internal/tools/racon"
	"gyan/internal/workload"
)

// benchPolishWindows polishes, per iteration, every window racon cuts from
// rs: multi-read graphs with branches, rings and reuse across windows, which
// is what a racon job spends its host time on.
func benchPolishWindows(b *testing.B, load func() (*workload.ReadSet, error), band int) {
	rs, err := load()
	if err != nil {
		b.Fatal(err)
	}
	mappings, _, err := racon.MapReads(rs.Backbone, rs.Reads, racon.DefaultK)
	if err != nil {
		b.Fatal(err)
	}
	windows, err := racon.BuildWindows(rs.Backbone, rs.Reads, mappings, racon.DefaultParams().WindowLen)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range windows {
			if _, _, err := racon.PolishWindow(w, bioseq.DefaultScores(), band); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// batchDrainReads is the read set every racon job of bench's batch_drain
// polishes: one 240-base window and a handful of reads.
func batchDrainReads() (*workload.ReadSet, error) {
	return workload.GenerateLongReads(workload.LongReadConfig{
		Name: "bench_reads", Seed: 42, RefLen: 240, ReadLen: 80, Coverage: 2,
		SubRate: 0.02, InsRate: 0.03, DelRate: 0.03, BackboneErrorRate: 0.04,
		NominalBytes: 17 << 30,
	})
}

// BenchmarkPolishWindow: the one window of bench's batch_drain read set, and
// the 40 windows of the server's default read set, unbanded and banded.
func BenchmarkPolishWindow(b *testing.B) {
	nfl := func() (*workload.ReadSet, error) { return workload.AlzheimersNFL(42) }
	b.Run("batch_drain", func(b *testing.B) { benchPolishWindows(b, batchDrainReads, 0) })
	b.Run("alzheimers_nfl", func(b *testing.B) { benchPolishWindows(b, nfl, 0) })
	b.Run("alzheimers_nfl_banded", func(b *testing.B) { benchPolishWindows(b, nfl, racon.BandWidth) })
}

// BenchmarkBasecall is one real squiggle through the network and the greedy
// decoder, one fused pass per timestep: the per-read cost of a bonito job.
func BenchmarkBasecall(b *testing.B) {
	set, err := workload.AcinetobacterPittii(42)
	if err != nil {
		b.Fatal(err)
	}
	net, err := bonito.NewPretrained()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := net.Basecall(set.Squiggles[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBonitoJob is the bonito job of the HTTP mix: Run on the
// acinetobacter_pittii squiggles at scale 0.001 on one K80 GPU, its 40 reads
// spread over the default Threads.
func BenchmarkBonitoJob(b *testing.B) {
	set, err := workload.AcinetobacterPittii(42)
	if err != nil {
		b.Fatal(err)
	}
	p := bonito.DefaultParams()
	p.Scale = 0.001
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := gpu.NewPaperTestbed(nil)
		env := bonito.Env{Cluster: c, Devices: []int{0}, PID: c.NextPID(), ProcName: "/usr/bin/bonito"}
		if _, err := bonito.Run(set, p, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRaconJob is a racon job of batch_drain with CPU placement: the
// whole Run at scale 0.004, mapping, windows, polish and window quality
// included, which BenchmarkPolishWindow leaves out.
func BenchmarkRaconJob(b *testing.B) {
	rs, err := batchDrainReads()
	if err != nil {
		b.Fatal(err)
	}
	p := racon.DefaultParams()
	p.Scale = 0.004
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := racon.Run(rs, p, racon.Env{ProcName: "/usr/bin/racon"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSMIQueryRoundTrip(b *testing.B) {
	c := gpu.NewPaperTestbed(nil)
	d, _ := c.Device(0)
	d.Attach(c.NextPID(), "/usr/bin/racon_gpu")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := smi.Query(c, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := smi.UsageFromXML(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSMIParse is the consumer half of the round trip above alone, so
// the two together show the render/parse split.
func BenchmarkSMIParse(b *testing.B) {
	c := gpu.NewPaperTestbed(nil)
	d, _ := c.Device(0)
	d.Attach(c.NextPID(), "/usr/bin/racon_gpu")
	doc, err := smi.Query(c, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smi.UsageFromXML(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// editDistanceSink keeps BenchmarkEditDistance's calls from being optimised
// away.
var editDistanceSink int

// BenchmarkEditDistance times the pairs Identity scores: two unrelated
// 1 000-base strings (the furthest-reaching pass gives up and the bit-vector
// kernel answers), a bonito call against its truth (a handful of edits the
// pass answers) and the batch_drain draft against its reference.
func BenchmarkEditDistance(b *testing.B) {
	run := func(b *testing.B, x, y []byte) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			editDistanceSink = bioseq.EditDistance(x, y)
		}
	}
	b.Run("unrelated_1000", func(b *testing.B) {
		rng := sim.NewRNG(9)
		x := make([]byte, 1000)
		y := make([]byte, 1000)
		for i := range x {
			x[i] = bioseq.Alphabet[rng.Intn(4)]
			y[i] = bioseq.Alphabet[rng.Intn(4)]
		}
		run(b, x, y)
	})
	b.Run("bonito_call", func(b *testing.B) {
		set, err := workload.AcinetobacterPittii(42)
		if err != nil {
			b.Fatal(err)
		}
		net, err := bonito.NewPretrained()
		if err != nil {
			b.Fatal(err)
		}
		call, _, err := net.Basecall(set.Squiggles[0])
		if err != nil {
			b.Fatal(err)
		}
		run(b, call.Bases, set.Squiggles[0].Truth.Bases)
	})
	b.Run("racon_draft", func(b *testing.B) {
		rs, err := batchDrainReads()
		if err != nil {
			b.Fatal(err)
		}
		run(b, rs.Backbone.Bases, rs.Reference.Bases)
	})
}

// BenchmarkStats is the whole seqstats job: the read set the server
// registers as alzheimers_nfl (~600 k bases).
func BenchmarkStats(b *testing.B) {
	rs, err := workload.AlzheimersNFL(42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bioseq.Stats(rs.Reads)
	}
}

func BenchmarkSyntheticReadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.GenerateLongReads(workload.LongReadConfig{
			Name: "bench", Seed: uint64(i), RefLen: 5000, ReadLen: 500, Coverage: 10,
			SubRate: 0.02, InsRate: 0.05, DelRate: 0.04, BackboneErrorRate: 0.05,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
