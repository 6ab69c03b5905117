// Command gyan drives the GPU-aware Galaxy instance interactively: it
// submits tool jobs against the simulated 2x Tesla K80 testbed, shows the
// GYAN mapping decisions, and prints the resulting nvidia-smi view and
// monitor statistics.
//
// Usage examples:
//
//	gyan -tool racon -gpus 0 -threads 4
//	gyan -tool bonito -gpus 1 -runtime docker
//	gyan -tool racon -instances 4 -policy pid -runtime docker   # Case 3
//	gyan -tool seqstats                                         # CPU-only path
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gyan/internal/core"
	"gyan/internal/galaxy"
	"gyan/internal/monitor"
	"gyan/internal/report"
	"gyan/internal/smi"
	"gyan/internal/tools/racon"
	"gyan/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gyan:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		tool      = flag.String("tool", "racon", "tool to submit: racon, bonito, pypaswas, seqstats")
		gpus      = flag.String("gpus", "", "requested GPU minor IDs (the wrapper's version tag), e.g. \"0\" or \"0,1\"")
		policy    = flag.String("policy", "pid", "multi-GPU allocation policy: pid, memory or utilization")
		runtime   = flag.String("runtime", "", "container runtime: docker, singularity, or empty for bare metal")
		threads   = flag.Int("threads", 4, "tool thread count")
		batches   = flag.Int("batches", 1, "cudapoa batches (racon)")
		banding   = flag.Bool("banding", false, "enable racon's banding approximation")
		scale     = flag.Float64("scale", 0.01, "fraction of the paper dataset the cost model simulates")
		instances = flag.Int("instances", 1, "number of instances to submit, 1 ms apart")
		seed      = flag.Uint64("seed", 42, "synthetic dataset seed")
		showCSV   = flag.Bool("csv", false, "print the hardware monitor's CSV")
		history   = flag.Bool("history", false, "print the shareable job history (JSON lines)")
	)
	flag.Parse()

	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		return err
	}

	g := galaxy.New(nil, galaxy.WithPolicy(pol))
	if err := g.RegisterDefaultTools(); err != nil {
		return err
	}
	if err := g.RegisterGenomicsTools(); err != nil {
		return err
	}

	var dataset any
	switch *tool {
	case "racon", "seqstats", "pypaswas":
		rs, err := workload.AlzheimersNFL(*seed)
		if err != nil {
			return err
		}
		dataset = rs
	case "bonito":
		set, err := workload.AcinetobacterPittii(*seed)
		if err != nil {
			return err
		}
		dataset = set
	default:
		return fmt.Errorf("unknown tool %q", *tool)
	}

	// The tool gets the flags its wrapper declares an input for, and scale.
	binding, err := g.Tool(*tool)
	if err != nil {
		return err
	}
	flags := map[string]string{"threads": fmt.Sprint(*threads), "batches": fmt.Sprint(*batches)}
	if *banding {
		flags["banding_flag"] = "--cuda-banded-alignment"
	}
	params := map[string]string{"scale": fmt.Sprint(*scale)}
	for _, p := range binding.XML.Inputs.Params {
		if v, ok := flags[p.Name]; ok {
			params[p.Name] = v
		}
	}

	var jobs []*galaxy.Job
	for i := 0; i < *instances; i++ {
		job, err := g.Submit(*tool, params, dataset, galaxy.SubmitOptions{
			GPURequest: *gpus,
			Runtime:    *runtime,
			Delay:      time.Duration(i) * time.Millisecond,
		})
		if err != nil {
			return err
		}
		jobs = append(jobs, job)
	}

	// The hardware usage monitor samples once a second from here until the
	// last job is done.
	mon := monitor.New(g.Cluster)
	mon.Watch(g.Engine, time.Second)

	// Snapshot the cluster shortly after all instances have started.
	var console string
	g.Engine.After(time.Duration(*instances)*time.Millisecond+50*time.Millisecond,
		func(now time.Duration) {
			console = smi.Console(smi.Snapshot(g.Cluster, now))
		})
	g.Run()

	tb := report.NewTable("Jobs", "job", "pid", "state", "destination",
		"CUDA_VISIBLE_DEVICES", "wall time", "info")
	for _, j := range jobs {
		tb.AddRow(fmt.Sprintf("%d", j.ID), fmt.Sprintf("%d", j.PID),
			string(j.State), j.Destination, j.VisibleDevices,
			report.Seconds(j.WallTime()), j.Info)
	}
	fmt.Println(tb)

	for _, j := range jobs {
		fmt.Printf("job %d command: %s\n", j.ID, j.CommandLine)
		if len(j.ContainerCommand) > 0 {
			fmt.Printf("job %d container: %v\n", j.ID, j.ContainerCommand)
		}
		if j.Result != nil {
			fmt.Printf("job %d output: %s\n", j.ID, j.Result.Output)
		}
		if j.Result != nil {
			if res, ok := j.Result.Detail.(*racon.Result); ok {
				sum := racon.Summarize(res.WindowStats)
				fmt.Printf("job %d quality: %d/%d windows improved, mean QV %.1f\n",
					j.ID, sum.Improved, sum.Windows, sum.MeanPolishedQV)
				for _, w := range racon.WorstWindows(res.WindowStats, 3) {
					fmt.Printf("  worst window %d [%d-%d): identity %.4f (%d segments)\n",
						w.Index, w.Start, w.End, w.PolishedIdentity, w.Segments)
				}
			}
		}
	}
	fmt.Println()
	fmt.Println("nvidia-smi during execution:")
	fmt.Println(console)

	st := report.NewTable("GPU hardware usage (monitor aggregate)",
		"gpu", "samples", "util min/avg/max", "mem min/avg/max (MiB)", "peak procs")
	for _, s := range mon.Stats() {
		st.AddRow(fmt.Sprint(s.Device), fmt.Sprint(s.Samples),
			fmt.Sprintf("%.0f / %.0f / %.0f", s.UtilMin, s.UtilAvg, s.UtilMax),
			fmt.Sprintf("%d / %.0f / %d", s.MemMinMiB, s.MemAvgMiB, s.MemMaxMiB),
			fmt.Sprint(s.PeakProcesses))
	}
	fmt.Println(st)

	if *showCSV {
		if err := mon.WriteCSV(os.Stdout); err != nil {
			return err
		}
	}
	if *history {
		fmt.Println("job history (shareable, with reproducibility digests):")
		if err := g.ExportHistory(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
