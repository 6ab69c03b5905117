package experiments

import (
	"fmt"

	"gyan/internal/galaxy"
	"gyan/internal/gpu"
	"gyan/internal/report"
	"gyan/internal/tools/paswas"
)

func init() {
	register("related-pypaswas",
		"Related work: PyPaSWAS Smith-Waterman alignment, 33x GPU speedup (Section I)", runPyPaSWAS)
}

// runPyPaSWAS reproduces the paper's motivating claim: "PyPaSWAS ... shows a
// 33x speedup with GPU compared to CPU". The tool runs through the full
// GYAN stack, so the experiment also demonstrates that a third GPU-capable
// wrapper drops into the framework without framework changes — the paper's
// extensibility argument.
func runPyPaSWAS(opt Options) (*Result, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	rs.NominalBytes = 1 << 30 // PyPaSWAS benchmarks run on ~GB read sets
	res := newResult("related-pypaswas", "PyPaSWAS GPU vs CPU through the Galaxy stack")

	var totals [2]float64
	tb := report.NewTable("pyPaSWAS alignment, 1 GB read set",
		"backend", "destination", "command", "time")
	for i, forceCPU := range []bool{true, false} {
		g, err := caseGalaxy(0)
		if err != nil {
			return nil, err
		}
		params := map[string]string{"scale": "1.0"}
		opts := galaxy.SubmitOptions{}
		if forceCPU {
			// Submitting against a GPU-less view is the framework's
			// own CPU path; emulate the user's CPU run by patching
			// the mapper destination via a GPU-less cluster is heavy,
			// so instead run the tool directly for the CPU leg.
			cpuRes, err := paswas.Run(rs, paswas.DefaultParams(), gpu.Env{})
			if err != nil {
				return nil, err
			}
			totals[i] = cpuRes.Timing.Total().Seconds()
			tb.AddRow("cpu", "local_cpu", "pypaswas --device CPU", report.Seconds(cpuRes.Timing.Total()))
			continue
		}
		job, err := g.Submit("pypaswas", params, rs, opts)
		if err != nil {
			return nil, err
		}
		g.Run()
		if job.State != galaxy.StateOK {
			return nil, fmt.Errorf("related-pypaswas: job failed: %s", job.Info)
		}
		totals[i] = job.WallTime().Seconds()
		tb.AddRow("gpu", job.Destination, job.CommandLine, report.Seconds(job.WallTime()))
	}
	res.Tables = append(res.Tables, tb)
	speedup := totals[0] / totals[1]
	res.Metrics["cpu_s"] = totals[0]
	res.Metrics["gpu_s"] = totals[1]
	res.Metrics["speedup"] = speedup
	res.Text = append(res.Text, fmt.Sprintf(
		"paper: PyPaSWAS shows a 33x speedup with GPU compared to CPU.\nmeasured: %.0f s CPU vs %.0f s GPU = %.0fx.",
		totals[0], totals[1], speedup))
	return res, nil
}
