// Basecalling pipeline: the Bonito workload of the paper's Fig. 5, run
// directly against the tool API (no Galaxy layer) on both backends.
//
// The CNN inference is real — the decoded bases are identical between the
// CPU run and the simulated-GPU run — while the modeled run times reproduce
// the paper's >50x speedup on the full-size datasets.
//
//	go run ./examples/basecalling
package main

import (
	"fmt"
	"log"

	"gyan/internal/gpu"
	"gyan/internal/report"
	"gyan/internal/tools/bonito"
	"gyan/internal/workload"
)

func main() {
	fmt.Println("Bonito basecalling — CPU vs simulated K80")
	fmt.Println()

	small, err := workload.AcinetobacterPittii(42)
	if err != nil {
		log.Fatal(err)
	}
	large, err := workload.KlebsiellaPneumoniae(42)
	if err != nil {
		log.Fatal(err)
	}

	tb := report.NewTable("Fig. 5 reproduction",
		"dataset", "reads", "cpu", "gpu", "speedup", "identity", "calls match")
	for _, set := range []*workload.SquiggleSet{small, large} {
		cpuRes, err := bonito.Run(set, bonito.DefaultParams(), gpu.Env{})
		if err != nil {
			log.Fatal(err)
		}
		onGPU := gpu.NewPaperTestbed(nil).Placement("/usr/bin/bonito", 1)
		gpuRes, err := bonito.Run(set, bonito.DefaultParams(), onGPU)
		if err != nil {
			log.Fatal(err)
		}
		match := "yes"
		for i := range cpuRes.Calls {
			if cpuRes.Calls[i].String() != gpuRes.Calls[i].String() {
				match = "NO"
			}
		}
		tb.AddRow(set.Name,
			fmt.Sprint(len(set.Squiggles)),
			report.Hours(cpuRes.Timing.Total()),
			fmt.Sprintf("%.1f h", gpuRes.Timing.Total().Hours()),
			report.Speedup(cpuRes.Timing.Total(), gpuRes.Timing.Total()),
			fmt.Sprintf("%.4f", gpuRes.MeanIdentity),
			match)
	}
	fmt.Println(tb)
	fmt.Println("paper: >210 h CPU for the 1.5 GB set, >50x GPU speedup.")
	fmt.Println()

	// A peek at the decoded output.
	call, _, err := mustNet().Basecall(small.Squiggles[0])
	if err != nil {
		log.Fatal(err)
	}
	truth := small.Squiggles[0].Truth
	fmt.Printf("read %s\n  truth : %s...\n  called: %s...\n",
		truth.ID, truth.String()[:60], call.String()[:60])
}

func mustNet() *bonito.Net {
	net, err := bonito.NewPretrained()
	if err != nil {
		log.Fatal(err)
	}
	return net
}
