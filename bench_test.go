package gyan

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus micro-benchmarks of the core data structures. The
// figure-level benchmarks report the *virtual* (modeled) seconds of the
// experiment as a custom metric next to the real wall time of the
// simulation itself.

import (
	"testing"
	"time"

	"gyan/internal/bioseq"
	"gyan/internal/experiments"
	"gyan/internal/galaxy"
	"gyan/internal/gpu"
	"gyan/internal/journal"
	"gyan/internal/sim"
	"gyan/internal/smi"
	"gyan/internal/tools/bonito"
	"gyan/internal/tools/racon"
	"gyan/internal/workload"
)

func benchOptions() experiments.Options {
	return experiments.Options{Seed: 42, Quick: true}
}

// runExperiment executes a registered experiment b.N times, reporting a
// headline metric as virtual seconds.
func runExperiment(b *testing.B, id, metric string) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if metric != "" {
			last = res.Metrics[metric]
		}
	}
	if metric != "" {
		b.ReportMetric(last, metric)
	}
}

// BenchmarkFig3RaconThreads regenerates Fig. 3 (Racon GPU vs CPU across
// thread counts).
func BenchmarkFig3RaconThreads(b *testing.B) { runExperiment(b, "fig3", "speedup_4thr") }

// BenchmarkPolishPhase regenerates the Section VI-A stage breakdown
// (117 s -> 15 s polishing; ~410 s -> ~200 s end to end).
func BenchmarkPolishPhase(b *testing.B) { runExperiment(b, "polish", "e2e_speedup") }

// BenchmarkFig4RaconProfile regenerates the Racon NVProf hotspot/stall
// analysis.
func BenchmarkFig4RaconProfile(b *testing.B) { runExperiment(b, "fig4", "mem_dep_pct") }

// BenchmarkFig5Bonito regenerates Fig. 5 (Bonito CPU vs GPU on both
// datasets).
func BenchmarkFig5Bonito(b *testing.B) { runExperiment(b, "fig5", "small_speedup") }

// BenchmarkFig6BonitoProfile regenerates the Bonito NVProf hotspots.
func BenchmarkFig6BonitoProfile(b *testing.B) { runExperiment(b, "fig6", "") }

// BenchmarkFig7Container regenerates Fig. 7 (containerized banded sweep).
func BenchmarkFig7Container(b *testing.B) { runExperiment(b, "fig7", "container_overhead_s") }

// BenchmarkMultiGPUCases regenerates the four placement experiments of
// Figs. 8 and 9.
func BenchmarkMultiGPUCases(b *testing.B) {
	for _, id := range []string{"case1", "case2", "case3", "case4"} {
		b.Run(id, func(b *testing.B) { runExperiment(b, id, "placements_correct") })
	}
}

// BenchmarkFig10Console regenerates the Fig. 10 nvidia-smi capture.
func BenchmarkFig10Console(b *testing.B) { runExperiment(b, "fig10", "gpu1_util_pct") }

// BenchmarkFig11ProcessTable regenerates the Fig. 11 process table.
func BenchmarkFig11ProcessTable(b *testing.B) { runExperiment(b, "fig11", "") }

// BenchmarkRelatedPyPaSWAS regenerates the paper's motivating 33x
// Smith-Waterman speedup claim.
func BenchmarkRelatedPyPaSWAS(b *testing.B) { runExperiment(b, "related-pypaswas", "speedup") }

// BenchmarkSchedBackfill runs the batch-scheduler study: greedy dispatch vs
// FIFO gangs vs conservative backfill on one arrival trace, reporting the
// backfill makespan in virtual seconds.
func BenchmarkSchedBackfill(b *testing.B) {
	runExperiment(b, "sched-backfill", "makespan_backfill")
}

// BenchmarkCrashRecovery replays the kill-and-failover scenario: handler h1
// dies mid-workload with a torn journal tail, standby h2 recovers and
// finishes; the reported metric is the replayed record count.
func BenchmarkCrashRecovery(b *testing.B) {
	runExperiment(b, "crash-recovery", "records_replayed")
}

// BenchmarkJournalOverhead measures the durability tax: the same job batch
// with the state journal off vs on (DurableSubmits + batched fsync),
// reporting the wall-clock overhead percentage.
func BenchmarkJournalOverhead(b *testing.B) {
	runExperiment(b, "journal-overhead", "overhead_pct")
}

// BenchmarkAblations runs the design-choice studies beyond the paper.
func BenchmarkAblations(b *testing.B) {
	for _, tc := range []struct{ id, metric string }{
		{"ablation-banding", "banded_16"},
		{"ablation-multigpu", "kernel_speedup"},
		{"ablation-policy", "makespan_pid"},
		{"ablation-energy", "energy_ratio"},
		{"ablation-hardware", "a100_vs_k80"},
		{"ablation-load", "mean_delay_slots2"},
		{"ablation-window", "identity_w500"},
	} {
		b.Run(tc.id, func(b *testing.B) { runExperiment(b, tc.id, tc.metric) })
	}
}

// BenchmarkSubmitDispatch measures the submit hot path under parallel
// submitters (GOMAXPROCS of them via b.RunParallel): the lock-split engine
// journal-free, and with durable group-commit journaling. Dispatch is parked
// behind a long delay so only the path this repo restructured is on the
// clock. Run with -benchtime and -cpu to sweep contention; pair with
// gyanbench -mutexprofile to see where the remaining serialization lives.
func BenchmarkSubmitDispatch(b *testing.B) {
	rs, err := workload.GenerateLongReads(workload.LongReadConfig{
		Name: "bench-dispatch", Seed: 42, RefLen: 2500, ReadLen: 350, Coverage: 8,
		SubRate: 0.02, InsRate: 0.05, DelRate: 0.04, BackboneErrorRate: 0.05,
	})
	if err != nil {
		b.Fatal(err)
	}
	submitAll := func(b *testing.B, g *galaxy.Galaxy) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := g.Submit("racon", map[string]string{"scale": "0.001"}, rs,
					galaxy.SubmitOptions{Delay: time.Hour}); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}
	b.Run("journal-free", func(b *testing.B) {
		g := galaxy.New(nil)
		if err := g.RegisterDefaultTools(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		submitAll(b, g)
	})
	b.Run("group-commit", func(b *testing.B) {
		j, err := journal.Open(b.TempDir(), journal.Options{DurableSubmits: true})
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		g := galaxy.New(nil, galaxy.WithJournal(j, "bench"))
		if err := g.RegisterDefaultTools(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		submitAll(b, g)
	})
}

// --- Micro-benchmarks of the substrates -----------------------------------

func BenchmarkPOAAddSequence(b *testing.B) {
	rng := sim.NewRNG(3)
	backbone := make([]byte, 500)
	read := make([]byte, 500)
	for i := range backbone {
		backbone[i] = bioseq.Alphabet[rng.Intn(4)]
		read[i] = backbone[i]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := racon.NewGraph(backbone, bioseq.DefaultScores(), 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.AddSequence(read); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPOAAddSequenceBanded(b *testing.B) {
	rng := sim.NewRNG(3)
	backbone := make([]byte, 500)
	read := make([]byte, 500)
	for i := range backbone {
		backbone[i] = bioseq.Alphabet[rng.Intn(4)]
		read[i] = backbone[i]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := racon.NewGraph(backbone, bioseq.DefaultScores(), 50)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.AddSequence(read); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGEMM(b *testing.B) {
	a := bonito.NewMatrix(256, 64)
	c := bonito.NewMatrix(64, 32)
	for i := range a.Data {
		a.Data[i] = float32(i%7) * 0.5
	}
	for i := range c.Data {
		c.Data[i] = float32(i%5) * 0.25
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bonito.GEMM(a, c); err != nil {
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
