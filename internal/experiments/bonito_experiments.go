package experiments

import (
	"fmt"

	"gyan/internal/gpu"
	"gyan/internal/nvprof"
	"gyan/internal/report"
	"gyan/internal/tools/bonito"
	"gyan/internal/workload"
)

func init() {
	register("fig5", "Bonito CPU vs GPU execution times for two datasets (Fig. 5)", runFig5)
	register("fig6", "Bonito NVProf hotspot functions (Fig. 6)", runFig6)
}

func bonitoRun(set *workload.SquiggleSet, useGPU bool, prof gpu.Profiler) (*bonito.Result, error) {
	var env gpu.Env
	if useGPU {
		env = gpu.NewPaperTestbed(nil).Placement("/usr/bin/bonito", 1)
		env.Profiler = prof
	}
	return bonito.Run(set, bonito.DefaultParams(), env)
}

// Fig5Row is one dataset's comparison.
type Fig5Row struct {
	Dataset            string
	SizeGB             float64
	CPUHours, GPUHours float64
	Speedup            float64
	MeanIdentity       float64
}

// Fig5Data computes both dataset comparisons.
func Fig5Data(opt Options) ([]Fig5Row, error) {
	small, large, err := squiggleSets(opt)
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for _, set := range []*workload.SquiggleSet{small, large} {
		cpuRes, err := bonitoRun(set, false, nil)
		if err != nil {
			return nil, err
		}
		gpuRes, err := bonitoRun(set, true, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig5Row{
			Dataset:      set.Name,
			SizeGB:       float64(set.NominalBytes) / (1 << 30),
			CPUHours:     cpuRes.Timing.Total().Hours(),
			GPUHours:     gpuRes.Timing.Total().Hours(),
			Speedup:      cpuRes.Timing.Total().Seconds() / gpuRes.Timing.Total().Seconds(),
			MeanIdentity: gpuRes.MeanIdentity,
		})
	}
	return rows, nil
}

func runFig5(opt Options) (*Result, error) {
	rows, err := Fig5Data(opt)
	if err != nil {
		return nil, err
	}
	res := newResult("fig5", "Bonito basecalling, CPU vs GPU")
	tb := report.NewTable("Fig. 5 — Bonito basecalling time",
		"dataset", "size", "cpu", "gpu", "speedup", "call identity")
	for _, r := range rows {
		tb.AddRow(r.Dataset,
			fmt.Sprintf("%.1f GB", r.SizeGB),
			fmt.Sprintf("%.0f h", r.CPUHours),
			fmt.Sprintf("%.1f h", r.GPUHours),
			fmt.Sprintf("%.0fx", r.Speedup),
			fmt.Sprintf("%.4f", r.MeanIdentity))
	}
	res.Tables = append(res.Tables, tb)
	res.Metrics["small_cpu_h"] = rows[0].CPUHours
	res.Metrics["small_speedup"] = rows[0].Speedup
	res.Metrics["large_cpu_h"] = rows[1].CPUHours
	res.Metrics["large_speedup"] = rows[1].Speedup
	res.Text = append(res.Text, fmt.Sprintf(
		"paper: Acinetobacter_pittii CPU run exceeded 210 h; Klebsiella approximated >850 h (4x the smaller set); GPU speedup >50x.\nmeasured: %.0f h and %.0f h CPU (ratio %.1fx — the datasets' true size ratio is 3.47x); speedups %.0fx and %.0fx.",
		rows[0].CPUHours, rows[1].CPUHours, rows[1].CPUHours/rows[0].CPUHours,
		rows[0].Speedup, rows[1].Speedup))
	return res, nil
}

func runFig6(opt Options) (*Result, error) {
	small, _, err := squiggleSets(opt)
	if err != nil {
		return nil, err
	}
	prof := nvprof.New()
	if _, err := bonitoRun(small, true, prof); err != nil {
		return nil, err
	}
	res := newResult("fig6", "Bonito NVProf hotspots")
	tb := report.NewTable("Fig. 6 — Bonito hotspot functions (NVProf)",
		"name", "kind", "calls", "time", "share")
	for _, h := range prof.Hotspots() {
		if h.Percent < 0.05 {
			continue
		}
		tb.AddRow(h.Name, h.Kind, fmt.Sprintf("%d", h.Calls),
			report.Seconds(h.Total), report.Pct(h.Percent))
	}
	res.Tables = append(res.Tables, tb)
	res.Text = append(res.Text,
		"paper: main hotspots are the CUDA kernel launcher, kernel synchronizer functions and GEMM kernels.",
		prof.Render("bonito basecaller, Acinetobacter_pittii"))
	return res, nil
}
