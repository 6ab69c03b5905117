// Basecaller training: the `bonito train` / `bonito convert` /
// `bonito evaluate` functionalities the paper lists (Section V-A), end to
// end. A labeled squiggle set is serialized to the training-file format,
// reloaded, used to train a fresh network with mini-batch SGD, and the
// trained model is evaluated on held-out reads against the constructed
// "downloaded" model.
//
//	go run ./examples/training
package main

import (
	"bytes"
	"fmt"
	"log"

	"gyan/internal/bioseq"
	"gyan/internal/report"
	"gyan/internal/tools/bonito"
	"gyan/internal/workload"
)

func main() {
	// Training and held-out datasets from different seeds.
	trainSet, err := workload.GenerateSquiggles(workload.SquiggleConfig{
		Name: "training_run", Seed: 7, Reads: 20, BasesPerRead: 300,
		SamplesPerBase: 6, NoiseSigma: 0.03, NominalBytes: 512 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	heldOut, err := workload.GenerateSquiggles(workload.SquiggleConfig{
		Name: "held_out", Seed: 1234, Reads: 8, BasesPerRead: 300,
		SamplesPerBase: 6, NoiseSigma: 0.03, NominalBytes: 64 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}

	// `bonito convert`: write the training archive and reload it.
	var archive bytes.Buffer
	if err := bonito.WriteSet(&archive, trainSet); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converted training set: %d reads, %d bytes on disk\n",
		len(trainSet.Squiggles), archive.Len())
	reloaded, err := bonito.ReadSet(&archive)
	if err != nil {
		log.Fatal(err)
	}

	// `bonito train`.
	trained, stats, err := bonito.Train(reloaded)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d labeled samples over %d epochs\n", stats.Samples, len(stats.EpochLoss))
	fmt.Printf("loss: first epoch %.4f -> last epoch %.4f; sample accuracy %.2f%%\n\n",
		stats.EpochLoss[0], stats.EpochLoss[len(stats.EpochLoss)-1], 100*stats.FinalAccuracy)

	// `bonito download` + evaluate both models on held-out reads.
	downloaded, err := bonito.Download("dna_r9.4.1")
	if err != nil {
		log.Fatal(err)
	}
	tb := report.NewTable("Held-out read identity", "read", "trained", "downloaded")
	var sumT, sumD float64
	for _, sq := range heldOut.Squiggles {
		ct, _, err := trained.Basecall(sq)
		if err != nil {
			log.Fatal(err)
		}
		cd, _, err := downloaded.Basecall(sq)
		if err != nil {
			log.Fatal(err)
		}
		idT := bioseq.Identity(ct.Bases, sq.Truth.Bases)
		idD := bioseq.Identity(cd.Bases, sq.Truth.Bases)
		sumT += idT
		sumD += idD
		tb.AddRow(sq.ID, fmt.Sprintf("%.4f", idT), fmt.Sprintf("%.4f", idD))
	}
	n := float64(len(heldOut.Squiggles))
	tb.AddRow("mean", fmt.Sprintf("%.4f", sumT/n), fmt.Sprintf("%.4f", sumD/n))
	fmt.Println(tb)
}
