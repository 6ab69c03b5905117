// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI), plus the deterministic engine scenarios built on
// the same simulator. Each experiment is a named function returning
// formatted tables plus the underlying numbers — all virtual time, a pure
// function of the seed — so cmd/gyanbench can print them and the test suite
// can assert the paper's shape (who wins, by roughly what factor, where
// crossovers fall). Wall-clock performance is bench/'s job, not this
// package's.
package experiments

import (
	"fmt"
	"sort"

	"gyan/internal/report"
	"gyan/internal/workload"
)

// Options configure an experiment run.
type Options struct {
	// Seed drives all synthetic data generation.
	Seed uint64
	// Quick shrinks the real synthetic payload (the cost model still
	// runs at paper scale, so reported numbers are unchanged; only the
	// real consensus/basecalling computation gets smaller). Used by the
	// test suite.
	Quick bool
}

// Result is one experiment's output.
type Result struct {
	// ID is the experiment identifier (e.g. "fig3").
	ID string
	// Caption describes what the paper reports.
	Caption string
	// Tables are the regenerated rows/series.
	Tables []*report.Table
	// Text carries free-form sections (console outputs, profiles).
	Text []string
	// Metrics exposes headline numbers keyed by name, for tests and
	// EXPERIMENTS.md.
	Metrics map[string]float64
}

func newResult(id, caption string) *Result {
	return &Result{ID: id, Caption: caption, Metrics: map[string]float64{}}
}

// runner is one registered experiment.
type runner struct {
	caption string
	run     func(Options) (*Result, error)
}

var registry = map[string]runner{}

func register(id, caption string, run func(Options) (*Result, error)) {
	registry[id] = runner{caption: caption, run: run}
}

// IDs returns the registered experiment identifiers in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Caption returns an experiment's description.
func Caption(id string) (string, error) {
	r, ok := registry[id]
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r.caption, nil
}

// Run executes one experiment.
func Run(id string, opt Options) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r.run(opt)
}

// nflReadSet builds the Alzheimers-NFL stand-in: full synthetic payload for
// gyanbench, a reduced one under Quick. NominalBytes stays 17 GiB either
// way, so the cost model is unaffected.
func nflReadSet(opt Options) (*workload.ReadSet, error) {
	if !opt.Quick {
		return workload.AlzheimersNFL(opt.Seed)
	}
	return workload.GenerateLongReads(workload.LongReadConfig{
		Name:              "alzheimers_nfl_quick",
		Seed:              opt.Seed,
		RefLen:            2500,
		ReadLen:           350,
		Coverage:          8,
		SubRate:           0.02,
		InsRate:           0.05,
		DelRate:           0.04,
		BackboneErrorRate: 0.05,
		NominalBytes:      17 << 30,
	})
}

// squiggleSets builds the two Bonito datasets, shrunk under Quick.
func squiggleSets(opt Options) (small, large *workload.SquiggleSet, err error) {
	if !opt.Quick {
		if small, err = workload.AcinetobacterPittii(opt.Seed); err != nil {
			return nil, nil, err
		}
		large, err = workload.KlebsiellaPneumoniae(opt.Seed)
		return small, large, err
	}
	small, err = workload.GenerateSquiggles(workload.SquiggleConfig{
		Name: "acinetobacter_quick", Seed: opt.Seed, Reads: 6, BasesPerRead: 120,
		SamplesPerBase: 6, NoiseSigma: 0.03, NominalBytes: 1536 << 20,
	})
	if err != nil {
		return nil, nil, err
	}
	large, err = workload.GenerateSquiggles(workload.SquiggleConfig{
		Name: "klebsiella_quick", Seed: opt.Seed + 1, Reads: 6, BasesPerRead: 120,
		SamplesPerBase: 6, NoiseSigma: 0.03, NominalBytes: 5324 << 20,
	})
	return small, large, err
}

// fig3Scale is the dataset fraction the Fig. 3/Fig. 7 sweeps model; see
// EXPERIMENTS.md for the calibration argument.
const fig3Scale = 1.0 / 36
