package experiments

import (
	"fmt"

	"gyan/internal/gpu"
	"gyan/internal/nvprof"
	"gyan/internal/report"
	"gyan/internal/tools/racon"
	"gyan/internal/workload"
)

func init() {
	register("fig3", "Racon GPU vs CPU polishing time across thread counts (Fig. 3)", runFig3)
	register("polish", "Racon full-scale polishing and end-to-end breakdown (Section VI-A text)", runPolish)
	register("fig4", "Racon NVProf hotspot functions and stall analysis (Fig. 4)", runFig4)
	register("fig7", "Containerized Racon-GPU threads x batches sweep with banding (Fig. 7)", runFig7)
}

// raconRun executes one racon configuration on a fresh testbed.
func raconRun(rs *workload.ReadSet, p racon.Params, useGPU bool, prof gpu.Profiler) (*racon.Result, error) {
	var env gpu.Env
	if useGPU {
		env = gpu.NewPaperTestbed(nil).Placement("/usr/bin/racon_gpu", 0)
		env.Profiler = prof
	}
	return racon.Run(rs, p, env)
}

// Fig3Point is one bar of Fig. 3.
type Fig3Point struct {
	Threads   int
	Config    string // "cpu", "gpu", "gpu-banded-16"
	PolishSec float64
}

// Fig3Data computes the Fig. 3 series.
func Fig3Data(opt Options) ([]Fig3Point, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	var points []Fig3Point
	for _, threads := range []int{1, 2, 4, 8, 16} {
		cpu := racon.DefaultParams()
		cpu.Threads = threads
		cpu.Scale = fig3Scale
		cpuRes, err := raconRun(rs, cpu, false, nil)
		if err != nil {
			return nil, err
		}
		points = append(points, Fig3Point{threads, "cpu", cpuRes.Timing.Polish().Seconds()})

		gpuP := cpu // same threads/scale, best unbanded config: 1 batch
		gpuRes, err := raconRun(rs, gpuP, true, nil)
		if err != nil {
			return nil, err
		}
		points = append(points, Fig3Point{threads, "gpu", gpuRes.Timing.Polish().Seconds()})

		banded := gpuP
		banded.Banding = true
		banded.Batches = 16
		bandRes, err := raconRun(rs, banded, true, nil)
		if err != nil {
			return nil, err
		}
		points = append(points, Fig3Point{threads, "gpu-banded-16", bandRes.Timing.Polish().Seconds()})
	}
	return points, nil
}

func runFig3(opt Options) (*Result, error) {
	points, err := Fig3Data(opt)
	if err != nil {
		return nil, err
	}
	res := newResult("fig3", "Racon polishing time, GPU vs CPU, by thread count")
	tb := report.NewTable("Fig. 3 — Racon polishing time (s) at 1/36 dataset scale",
		"threads", "cpu", "gpu (1 batch)", "gpu banded (16 batches)")
	byThreads := map[int]map[string]float64{}
	for _, p := range points {
		if byThreads[p.Threads] == nil {
			byThreads[p.Threads] = map[string]float64{}
		}
		byThreads[p.Threads][p.Config] = p.PolishSec
	}
	for _, threads := range []int{1, 2, 4, 8, 16} {
		row := byThreads[threads]
		tb.AddRow(fmt.Sprintf("%d", threads),
			fmt.Sprintf("%.2f", row["cpu"]),
			fmt.Sprintf("%.2f", row["gpu"]),
			fmt.Sprintf("%.2f", row["gpu-banded-16"]))
	}
	res.Tables = append(res.Tables, tb)
	res.Metrics["cpu_4thr_s"] = byThreads[4]["cpu"]
	res.Metrics["gpu_4thr_s"] = byThreads[4]["gpu"]
	res.Metrics["gpu_banded_4thr_s"] = byThreads[4]["gpu-banded-16"]
	res.Metrics["speedup_4thr"] = byThreads[4]["cpu"] / byThreads[4]["gpu"]
	res.Text = append(res.Text, fmt.Sprintf(
		"paper: CPU 4 threads 3.22 s; best GPU unbanded (4 thr, 1 batch) 1.72 s; best banded (4 thr, 16 batches) 1.67 s; ~2x.\nmeasured: CPU 4 threads %.2f s; GPU %.2f s; banded %.2f s; %.1fx.",
		byThreads[4]["cpu"], byThreads[4]["gpu"], byThreads[4]["gpu-banded-16"],
		res.Metrics["speedup_4thr"]))
	return res, nil
}

func runPolish(opt Options) (*Result, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	cpuRes, err := raconRun(rs, racon.DefaultParams(), false, nil)
	if err != nil {
		return nil, err
	}
	gpuRes, err := raconRun(rs, racon.DefaultParams(), true, nil)
	if err != nil {
		return nil, err
	}
	res := newResult("polish", "Racon full-scale stage breakdown")
	tb := report.NewTable("Racon full-dataset (17 GB) stage breakdown, 4 threads",
		"stage", "cpu", "gpu")
	ct, gt := cpuRes.Timing, gpuRes.Timing
	tb.AddRow("dataset IO", report.Seconds(ct.IO), report.Seconds(gt.IO))
	tb.AddRow("host prep", "-", report.Seconds(gt.HostPrep))
	tb.AddRow("overlap/alignment", report.Seconds(ct.Overlap), report.Seconds(gt.Overlap))
	tb.AddRow("GPU memory allocation", "-", report.Seconds(gt.Alloc))
	tb.AddRow("PCIe transfer", "-", report.Seconds(gt.Transfer))
	tb.AddRow("polishing kernels", report.Seconds(ct.CPUPolish), report.Seconds(gt.Kernels))
	tb.AddRow("CUDA API overhead", "-", report.Seconds(gt.Sync))
	tb.AddRow("stitching", report.Seconds(ct.Stitch), report.Seconds(gt.Stitch))
	tb.AddRow("end-to-end", report.Seconds(ct.Total()), report.Seconds(gt.Total()))
	res.Tables = append(res.Tables, tb)

	res.Metrics["cpu_polish_s"] = ct.CPUPolish.Seconds()
	res.Metrics["gpu_alloc_s"] = gt.Alloc.Seconds()
	res.Metrics["gpu_kernels_s"] = gt.Kernels.Seconds()
	res.Metrics["gpu_api_overhead_s"] = gt.Sync.Seconds()
	res.Metrics["cpu_e2e_s"] = ct.Total().Seconds()
	res.Metrics["gpu_e2e_s"] = gt.Total().Seconds()
	res.Metrics["e2e_speedup"] = ct.Total().Seconds() / gt.Total().Seconds()
	res.Text = append(res.Text, fmt.Sprintf(
		"paper: polishing 117 s CPU -> 15 s GPU (2 s alloc + 13 s kernels); end-to-end ~410 s -> ~200 s with ~40 s CUDA API overhead.\nmeasured: polishing %.0f s CPU -> %.1f s GPU (%.1f s alloc + %.1f s kernels); end-to-end %.0f s -> %.0f s with %.0f s API overhead (%.1fx).",
		ct.CPUPolish.Seconds(), gt.Alloc.Seconds()+gt.Kernels.Seconds(),
		gt.Alloc.Seconds(), gt.Kernels.Seconds(),
		ct.Total().Seconds(), gt.Total().Seconds(), gt.Sync.Seconds(),
		res.Metrics["e2e_speedup"]))
	return res, nil
}

func runFig4(opt Options) (*Result, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	prof := nvprof.New()
	if _, err := raconRun(rs, racon.DefaultParams(), true, prof); err != nil {
		return nil, err
	}
	res := newResult("fig4", "Racon NVProf hotspots and stall analysis")
	tb := report.NewTable("Fig. 4 — Racon-GPU hotspot functions (NVProf)",
		"name", "kind", "calls", "time", "share")
	for _, h := range prof.Hotspots() {
		if h.Percent < 0.05 {
			continue
		}
		tb.AddRow(h.Name, h.Kind, fmt.Sprintf("%d", h.Calls),
			report.Seconds(h.Total), report.Pct(h.Percent))
	}
	res.Tables = append(res.Tables, tb)

	stalls := prof.Stalls()
	st := report.NewTable("Racon stall analysis", "reason", "share")
	st.AddRow("memory dependency", report.Pct(stalls.MemoryDependencyPct))
	st.AddRow("execution dependency", report.Pct(stalls.ExecutionDependencyPct))
	st.AddRow("synchronization", report.Pct(stalls.SynchronizationPct))
	st.AddRow("other", report.Pct(stalls.OtherPct))
	res.Tables = append(res.Tables, st)

	res.Metrics["mem_dep_pct"] = stalls.MemoryDependencyPct
	res.Metrics["exec_dep_pct"] = stalls.ExecutionDependencyPct
	res.Text = append(res.Text,
		"paper: hotspots are kernel synchronization, memcpy API calls, generatePOAKernel and generateConsensusKernel; stalls ~70% memory dependency, ~20% execution dependency.",
		prof.Render("racon-gpu, 17 GB Alzheimers NFL"))
	return res, nil
}

// Fig7Point is one cell of Fig. 7's sweep.
type Fig7Point struct {
	Threads, Batches int
	PolishSec        float64
}

// Fig7Data computes the containerized banded sweep.
func Fig7Data(opt Options) ([]Fig7Point, float64, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, 0, err
	}
	var points []Fig7Point
	best := -1.0
	for _, threads := range []int{1, 2, 4} {
		for _, batches := range []int{1, 4, 8, 16} {
			p := racon.DefaultParams()
			p.Threads = threads
			p.Batches = batches
			p.Banding = true
			p.Scale = fig3Scale
			p.Containerized = true
			r, err := raconRun(rs, p, true, nil)
			if err != nil {
				return nil, 0, err
			}
			sec := (r.Timing.Polish() + r.Timing.ContainerLaunch).Seconds()
			points = append(points, Fig7Point{threads, batches, sec})
			if best < 0 || sec < best {
				best = sec
			}
		}
	}
	return points, best, nil
}

func runFig7(opt Options) (*Result, error) {
	points, best, err := Fig7Data(opt)
	if err != nil {
		return nil, err
	}
	res := newResult("fig7", "Containerized Racon-GPU banded sweep")
	tb := report.NewTable("Fig. 7 — Docker Racon-GPU polishing + launch (s), banding on, 1/36 scale",
		"threads", "1 batch", "4 batches", "8 batches", "16 batches")
	byThreads := map[int]map[int]float64{}
	var bestT, bestB int
	for _, p := range points {
		if byThreads[p.Threads] == nil {
			byThreads[p.Threads] = map[int]float64{}
		}
		byThreads[p.Threads][p.Batches] = p.PolishSec
		if p.PolishSec == best {
			bestT, bestB = p.Threads, p.Batches
		}
	}
	for _, threads := range []int{1, 2, 4} {
		row := byThreads[threads]
		tb.AddRow(fmt.Sprintf("%d", threads),
			fmt.Sprintf("%.2f", row[1]), fmt.Sprintf("%.2f", row[4]),
			fmt.Sprintf("%.2f", row[8]), fmt.Sprintf("%.2f", row[16]))
	}
	res.Tables = append(res.Tables, tb)

	// Container overhead against the bare-metal best banded config.
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	bare := racon.DefaultParams()
	bare.Threads, bare.Batches, bare.Banding, bare.Scale = bestT, bestB, true, fig3Scale
	bareRes, err := raconRun(rs, bare, true, nil)
	if err != nil {
		return nil, err
	}
	barePolish := bareRes.Timing.Polish().Seconds()
	overhead := best - barePolish
	res.Metrics["best_s"] = best
	res.Metrics["best_threads"] = float64(bestT)
	res.Metrics["best_batches"] = float64(bestB)
	res.Metrics["container_overhead_s"] = overhead
	res.Metrics["container_overhead_pct"] = 100 * overhead / best
	res.Text = append(res.Text, fmt.Sprintf(
		"paper: best banded Docker config is 2 threads / 8 batches; ~0.6 s (36%%) spent on container launching and cold start.\nmeasured: best %.2f s at %d threads / %d batches; container overhead %.2f s (%.0f%% of the containerized run).",
		best, bestT, bestB, overhead, res.Metrics["container_overhead_pct"]))
	return res, nil
}
