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

// BenchmarkPolishWindow: the one window of bench's batch_drain read set, and
// the 40 windows of the server's default read set, unbanded and banded.
func BenchmarkPolishWindow(b *testing.B) {
	tiny := func() (*workload.ReadSet, error) {
		return workload.GenerateLongReads(workload.LongReadConfig{
			Name: "bench_reads", Seed: 42, RefLen: 240, ReadLen: 80, Coverage: 2,
			SubRate: 0.02, InsRate: 0.03, DelRate: 0.03, BackboneErrorRate: 0.04,
		})
	}
	nfl := func() (*workload.ReadSet, error) { return workload.AlzheimersNFL(42) }
	b.Run("batch_drain", func(b *testing.B) { benchPolishWindows(b, tiny, 0) })
	b.Run("alzheimers_nfl", func(b *testing.B) { benchPolishWindows(b, nfl, 0) })
	b.Run("alzheimers_nfl_banded", func(b *testing.B) { benchPolishWindows(b, nfl, racon.BandWidth) })
}

// BenchmarkBasecall is one real squiggle through the network and the greedy
// decoder: the per-read cost of a bonito job.
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

func BenchmarkEditDistance(b *testing.B) {
	rng := sim.NewRNG(9)
	x := make([]byte, 1000)
	y := make([]byte, 1000)
	for i := range x {
		x[i] = bioseq.Alphabet[rng.Intn(4)]
		y[i] = bioseq.Alphabet[rng.Intn(4)]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bioseq.EditDistance(x, y)
	}
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
