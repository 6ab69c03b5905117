package experiments

import (
	"fmt"
	"time"

	"gyan/internal/core"
	"gyan/internal/galaxy"
	"gyan/internal/gpu"
	"gyan/internal/jobconf"
	"gyan/internal/report"
	"gyan/internal/tools/racon"
	"gyan/internal/workload"
)

// Ablations beyond the paper's evaluation, probing the design choices
// DESIGN.md calls out: the banding/batch interaction past the paper's
// sweep range, multi-GPU work spreading, and the allocation policies under
// bursty arrivals.

func init() {
	register("ablation-banding", "Ablation: banded vs unbanded kernels across an extended batch range", runAblationBanding)
	register("ablation-multigpu", "Ablation: Racon kernel time on one vs two GPUs", runAblationMultiGPU)
	register("ablation-policy", "Ablation: allocation policies under a burst of arrivals", runAblationPolicy)
	register("ablation-energy", "Ablation: energy of the full Racon run, CPU vs GPU", runAblationEnergy)
	register("ablation-hardware", "Ablation: projecting the Racon GPU run onto V100 and A100 hardware", runAblationHardware)
	register("ablation-load", "Ablation: queueing delay under Poisson load with limited destination slots", runAblationLoad)
	register("ablation-window", "Ablation: consensus quality and DP work vs polishing window length (real computation)", runAblationWindow)
}

// runAblationWindow sweeps Racon's window length and reports REAL outputs:
// the polished identity and the DP cells actually computed, not modeled
// time. Small windows lose cross-window context at their boundaries; large
// windows raise per-window DP cost. This probes the design constant the
// other experiments hold fixed at 500.
func runAblationWindow(opt Options) (*Result, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	res := newResult("ablation-window", "Window length vs consensus quality (real compute)")
	tb := report.NewTable("Racon window-length sweep (real polished identity)",
		"window", "windows", "polished identity", "mean window QV", "DP cells")
	var id250, id500 float64
	for _, windowLen := range []int{100, 250, 500, 1000} {
		p := racon.DefaultParams()
		p.WindowLen = windowLen
		p.Scale = fig3Scale
		r, err := raconRun(rs, p, false, nil)
		if err != nil {
			return nil, err
		}
		sum := racon.Summarize(r.WindowStats)
		tb.AddRow(fmt.Sprintf("%d", windowLen), fmt.Sprintf("%d", r.Windows),
			fmt.Sprintf("%.4f", r.PolishedIdentity),
			fmt.Sprintf("%.1f", sum.MeanPolishedQV),
			fmt.Sprintf("%d", r.DPCells))
		switch windowLen {
		case 250:
			id250 = r.PolishedIdentity
		case 500:
			id500 = r.PolishedIdentity
		}
		res.Metrics[fmt.Sprintf("identity_w%d", windowLen)] = r.PolishedIdentity
		res.Metrics[fmt.Sprintf("cells_w%d", windowLen)] = float64(r.DPCells)
	}
	res.Tables = append(res.Tables, tb)
	res.Metrics["identity_250"] = id250
	res.Metrics["identity_500"] = id500
	res.Text = append(res.Text,
		"Unlike the timing experiments, every number here is computed, not modeled: the POA actually runs at each window length. The default 500-base window sits where quality has saturated while DP work stays moderate.")
	return res, nil
}

// runAblationLoad drives a Poisson arrival stream of racon jobs into a GPU
// destination with a 2-job slot limit and reports queueing delay and
// makespan against an unlimited destination — quantifying the scheduler
// stage (step 3 of the paper's Fig. 2) that the paper leaves implicit.
func runAblationLoad(opt Options) (*Result, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	arrivals, err := workload.PoissonArrivals(opt.Seed, 0.5, 10) // ~2 s gaps
	if err != nil {
		return nil, err
	}

	res := newResult("ablation-load", "Poisson load against destination slots")
	tb := report.NewTable("10 Poisson arrivals of ~4 s racon jobs",
		"gpu destination", "mean queue delay", "max queue delay", "makespan")
	for _, conf := range []struct {
		label string
		xml   string
	}{
		{"2 slots", slottedGPUConf(2)},
		{"unlimited", slottedGPUConf(0)},
	} {
		parsed, err := jobconf.Parse(conf.xml)
		if err != nil {
			return nil, err
		}
		g := galaxy.New(nil, galaxy.WithJobConf(parsed))
		if err := g.RegisterDefaultTools(); err != nil {
			return nil, err
		}
		var jobs []*galaxy.Job
		for _, at := range arrivals {
			job, err := g.Submit("racon", map[string]string{"scale": "0.01"}, rs,
				galaxy.SubmitOptions{Delay: at})
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, job)
		}
		g.Run()
		var sumDelay, maxDelay, makespan time.Duration
		for i, j := range jobs {
			if j.State != galaxy.StateOK {
				return nil, fmt.Errorf("ablation-load: job %d failed: %s", j.ID, j.Info)
			}
			delay := j.Started - j.Submitted - arrivals[i]
			if delay < 0 {
				delay = 0
			}
			sumDelay += delay
			if delay > maxDelay {
				maxDelay = delay
			}
			if j.Finished > makespan {
				makespan = j.Finished
			}
		}
		mean := sumDelay / time.Duration(len(jobs))
		tb.AddRow(conf.label, report.Seconds(mean), report.Seconds(maxDelay), report.Seconds(makespan))
		key := "slots2"
		if conf.label == "unlimited" {
			key = "unlimited"
		}
		res.Metrics["mean_delay_"+key] = mean.Seconds()
		res.Metrics["makespan_"+key] = makespan.Seconds()
	}
	res.Tables = append(res.Tables, tb)
	res.Text = append(res.Text,
		"With only two slots, arrivals during busy periods wait for a slot (positive queueing delay) and the makespan stretches; the unlimited destination admits everything immediately at the cost of GPU co-residency contention.")
	return res, nil
}

// slottedGPUConf renders a job_conf whose GPU destination has the given
// slot limit (0 = unlimited).
func slottedGPUConf(slots int) string {
	slotParam := ""
	if slots > 0 {
		slotParam = fmt.Sprintf("<param id=\"slots\">%d</param>", slots)
	}
	return fmt.Sprintf(`<job_conf>
  <plugins><plugin id="local" type="runner" workers="4"/></plugins>
  <destinations default="dynamic">
    <destination id="dynamic" runner="dynamic"/>
    <destination id="local_gpu" runner="local">
      <param id="gpu_enabled">true</param>
      %s
    </destination>
    <destination id="local_cpu" runner="local"/>
  </destinations>
</job_conf>`, slotParam)
}

// runAblationHardware reruns the full-scale Racon GPU timing model on newer
// device generations. The paper's testbed is a 2015-era K80; its motivation
// section cites V100/A100 deployments, so this ablation projects what GYAN
// would deliver there. Only the device spec changes — the workload, the
// chunking and the host stages stay fixed.
func runAblationHardware(opt Options) (*Result, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	specs := []gpu.DeviceSpec{gpu.TeslaGK210(), gpu.TeslaV100(), gpu.A100SXM()}
	res := newResult("ablation-hardware", "Racon GPU run projected across GPU generations")
	tb := report.NewTable("Racon full-scale GPU run by device generation",
		"device", "alloc", "polish kernels", "transfers", "end-to-end")
	var k80Total, a100Total float64
	for _, spec := range specs {
		env := gpu.NewCluster(spec, 2, nil).Placement("/usr/bin/racon_gpu", 0)
		r, err := racon.Run(rs, racon.DefaultParams(), env)
		if err != nil {
			return nil, err
		}
		tb.AddRow(spec.Name,
			report.Seconds(r.Timing.Alloc),
			report.Seconds(r.Timing.Kernels),
			report.Seconds(r.Timing.Transfer),
			report.Seconds(r.Timing.Total()))
		switch spec.Name {
		case "Tesla K80":
			k80Total = r.Timing.Total().Seconds()
		case "A100-SXM4":
			a100Total = r.Timing.Total().Seconds()
		}
		res.Metrics["e2e_"+spec.Name] = r.Timing.Total().Seconds()
	}
	res.Tables = append(res.Tables, tb)
	res.Metrics["a100_vs_k80"] = k80Total / a100Total
	res.Text = append(res.Text, fmt.Sprintf(
		"Kernel and transfer stages shrink with newer devices, but host-side stages (IO, prep, sync residue) do not, so the projected end-to-end gain on an A100 is %.1fx over the K80 — Amdahl's law applied to GYAN's dispatch path.",
		k80Total/a100Total))
	return res, nil
}

// runAblationEnergy compares the electrical energy of the paper's headline
// Racon run on the two backends. The GPU run is both faster and uses fewer
// host cores, so despite the K80's draw it wins on energy — a dimension the
// paper does not evaluate.
func runAblationEnergy(opt Options) (*Result, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	host := gpu.XeonHost()
	res := newResult("ablation-energy", "Energy, full-scale Racon run")

	cpuRes, err := raconRun(rs, racon.DefaultParams(), false, nil)
	if err != nil {
		return nil, err
	}
	// CPU run: 4 busy cores for the whole end-to-end span.
	cpuJ := host.Energy(4, cpuRes.Timing.Total())

	c := gpu.NewPaperTestbed(nil)
	env := c.Placement("/usr/bin/racon_gpu", 0)
	gpuRes, err := racon.Run(rs, racon.DefaultParams(), env)
	if err != nil {
		return nil, err
	}
	d0, err := c.Device(0)
	if err != nil {
		return nil, err
	}
	total := gpuRes.Timing.Total()
	deviceJ := d0.EnergyOver(0, total)
	hostJ := host.Energy(4, total)
	gpuJ := deviceJ + hostJ

	tb := report.NewTable("Energy, 17 GB Racon run at 4 threads",
		"backend", "wall time", "host energy", "device energy", "total")
	tb.AddRow("cpu", report.Seconds(cpuRes.Timing.Total()),
		fmt.Sprintf("%.0f kJ", cpuJ/1000), "-", fmt.Sprintf("%.0f kJ", cpuJ/1000))
	tb.AddRow("gpu", report.Seconds(total),
		fmt.Sprintf("%.0f kJ", hostJ/1000),
		fmt.Sprintf("%.0f kJ", deviceJ/1000),
		fmt.Sprintf("%.0f kJ", gpuJ/1000))
	res.Tables = append(res.Tables, tb)
	res.Metrics["cpu_kj"] = cpuJ / 1000
	res.Metrics["gpu_kj"] = gpuJ / 1000
	res.Metrics["energy_ratio"] = cpuJ / gpuJ
	res.Text = append(res.Text, fmt.Sprintf(
		"The ~2x speedup translates into a %.1fx energy saving even counting the K80's draw, because the dominant cost is keeping the host powered for the duration of the run.",
		cpuJ/gpuJ))
	return res, nil
}

func runAblationBanding(opt Options) (*Result, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	batchRange := []int{1, 2, 4, 8, 12, 16, 24, 32}
	res := newResult("ablation-banding", "Banding/batch interaction past the paper's range")
	tb := report.NewTable("Racon GPU polishing (s) at 1/36 scale, extended batch sweep",
		"batches", "unbanded", "banded")
	var bandedAt1, bandedAt16, bandedAt32 float64
	for _, batches := range batchRange {
		var row [2]float64
		for i, banding := range []bool{false, true} {
			p := racon.DefaultParams()
			p.Batches = batches
			p.Banding = banding
			p.Scale = fig3Scale
			r, err := raconRun(rs, p, true, nil)
			if err != nil {
				return nil, err
			}
			row[i] = r.Timing.Polish().Seconds()
		}
		tb.AddRow(fmt.Sprintf("%d", batches),
			fmt.Sprintf("%.2f", row[0]), fmt.Sprintf("%.2f", row[1]))
		switch batches {
		case 1:
			bandedAt1 = row[1]
		case 16:
			bandedAt16 = row[1]
		case 32:
			bandedAt32 = row[1]
		}
	}
	res.Tables = append(res.Tables, tb)
	res.Metrics["banded_1"] = bandedAt1
	res.Metrics["banded_16"] = bandedAt16
	res.Metrics["banded_32"] = bandedAt32
	res.Text = append(res.Text,
		"Banded kernels expose less parallelism per window, so they need many concurrent batches to fill the SMs; past saturation (~12 batches) extra batches only add per-batch overhead. Unbanded kernels saturate at one batch and degrade monotonically.")
	return res, nil
}

func runAblationMultiGPU(opt Options) (*Result, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	res := newResult("ablation-multigpu", "Multi-GPU work spreading")
	tb := report.NewTable("Racon full-scale device stages, one vs two GPUs",
		"devices", "align kernels", "polish kernels", "transfers", "sync")
	var k1, k2 float64
	for _, devices := range [][]int{{0}, {0, 1}} {
		env := gpu.NewPaperTestbed(nil).Placement("/usr/bin/racon_gpu", devices...)
		r, err := racon.Run(rs, racon.DefaultParams(), env)
		if err != nil {
			return nil, err
		}
		tb.AddRow(fmt.Sprintf("%d", len(devices)),
			report.Seconds(r.Timing.Overlap),
			report.Seconds(r.Timing.Kernels),
			report.Seconds(r.Timing.Transfer),
			report.Seconds(r.Timing.Sync))
		if len(devices) == 1 {
			k1 = r.Timing.Kernels.Seconds()
		} else {
			k2 = r.Timing.Kernels.Seconds()
		}
	}
	res.Tables = append(res.Tables, tb)
	res.Metrics["kernels_1gpu_s"] = k1
	res.Metrics["kernels_2gpu_s"] = k2
	res.Metrics["kernel_speedup"] = k1 / k2
	res.Text = append(res.Text, fmt.Sprintf(
		"Spreading chunks across both GK210 dies cuts kernel time %.1fx; host-side sync residue does not shrink, so end-to-end gains are sublinear — the paper's rationale for reserving multi-GPU spreading for 'highly compute-intensive tools'.",
		k1/k2))
	return res, nil
}

// runAblationPolicy submits a burst of six GPU jobs under each allocation
// policy and compares makespan and peak co-residency.
func runAblationPolicy(opt Options) (*Result, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	res := newResult("ablation-policy", "Allocation policies under bursty arrivals")
	tb := report.NewTable("Six Racon jobs arriving 1 ms apart, by policy",
		"policy", "makespan", "peak procs/GPU", "scattered jobs")
	for _, policy := range []core.Policy{core.PolicyPID, core.PolicyMemory, core.PolicyUtilization} {
		g := galaxy.New(nil, galaxy.WithPolicy(policy))
		if err := g.RegisterDefaultTools(); err != nil {
			return nil, err
		}
		var jobs []*galaxy.Job
		for i := 0; i < 6; i++ {
			job, err := g.Submit("racon",
				map[string]string{"scale": "0.002"}, rs,
				galaxy.SubmitOptions{Delay: time.Duration(i) * time.Millisecond})
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, job)
		}
		peak := 0
		g.Engine.After(10*time.Millisecond, func(time.Duration) {
			for _, d := range g.Cluster.Devices() {
				if n := d.ProcessCount(); n > peak {
					peak = n
				}
			}
		})
		end := g.Run()

		var makespan time.Duration
		scattered := 0
		for _, j := range jobs {
			if j.State != galaxy.StateOK {
				return nil, fmt.Errorf("ablation-policy: job %d failed under %s: %s", j.ID, policy, j.Info)
			}
			if j.Finished > makespan {
				makespan = j.Finished
			}
			if len(j.Devices) > 1 {
				scattered++
			}
		}
		_ = end
		tb.AddRow(policy.String(), report.Seconds(makespan),
			fmt.Sprintf("%d", peak), fmt.Sprintf("%d", scattered))
		res.Metrics["makespan_"+policy.String()] = makespan.Seconds()
		res.Metrics["scattered_"+policy.String()] = float64(scattered)
	}
	res.Tables = append(res.Tables, tb)
	res.Text = append(res.Text,
		"The PID policy scatters overflow jobs across every device (multi-GPU contention for all residents); the memory and utilization policies pin each overflow job to a single least-loaded device. Which wins depends on whether the workload is bandwidth- or occupancy-limited — the trade-off behind the paper's Case 4 discussion.")
	return res, nil
}
