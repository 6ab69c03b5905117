// Command bench is the repository's end-to-end benchmark. One command
// builds and boots the real gyan-server, drives five named workloads to
// completion from this single load-generating process, checks that the
// outputs are correct, and prints every metric declared in BENCHMARK.json
// by name with its unit and sample count:
//
//	go run ./bench                         all workloads, end-to-end metrics
//	go run ./bench -trace 1                all workloads, per-layer metrics and layer tables
//	go run ./bench -workload http_jobs -seed 7 -seconds 30 -trace 0
//	go run ./bench -runs 5 -out a.json     five seeds per workload, saved for -compare
//	go run ./bench -compare a.json b.json  per-workload verdicts against the declared bounds
//
// With -workload the last line of standard output is the result object the
// benchmark driver reads. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"
)

// outFile is what -out writes and -compare reads.
type outFile struct {
	Provenance provenance `json:"provenance"`
	Sizes      sizes      `json:"sizes"`
	Runs       []result   `json:"runs"`
}

// interrupted is set by the signal handler, which then cleans up and exits
// 130 itself; the main goroutine, whose round has just lost its servers,
// must not race it to a different exit code.
var interrupted atomic.Bool

func main() {
	code := realMain()
	if interrupted.Load() {
		select {}
	}
	os.Exit(code)
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "run one workload and end with the driver's result line (default: all five)")
		seed     = flag.Uint64("seed", 42, "workload seed: job mix order and arrival schedule")
		seconds  = flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		scale    = flag.String("scale", "full", "job counts per round: full or smoke")
		runs     = flag.Int("runs", 1, "runs per workload, on consecutive seeds")
		out      = flag.String("out", "", "write every run to this JSON file (the input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark contract")
	)
	flag.Parse()
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
	}
	var sz sizes
	switch *scale {
	case "full":
		sz = fullSizes
	case "smoke":
		sz = smokeSizes
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown -scale %q (want full or smoke)\n", *scale)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
		if *scale == "smoke" {
			*seconds = 0 // one round each
		}
	}
	selected := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		selected = []workloadDef{w}
	}

	e, err := newEnv(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		interrupted.Store(true)
		e.clean.run()
		os.Exit(130)
	}()
	defer e.clean.run()

	prov := stamp(e)
	pj, _ := json.Marshal(prov)
	e.logf("provenance %s", pj)
	sj, _ := json.Marshal(sz)
	e.logf("sizes %s connections %d submitters %d", sj, e.c, e.submit)

	file := outFile{Provenance: prov, Sizes: sz}
	var last result
	for _, w := range selected {
		for i := 0; i < *runs; i++ {
			res, err := runOne(e, spec, w, sz, *seed+uint64(i), *seconds, *trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %v\n", w.name, err)
				return 1
			}
			file.Runs = append(file.Runs, res)
			last = res
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *workload != "" {
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		// Scratch goes first: the result must be the last thing printed.
		e.clean.run()
		fmt.Println(string(line))
	}
	return 0
}

// runOne is one run of one workload: the end-to-end metrics with tracing
// off, or the per-layer metrics from the traced pass. Any failed gate is an
// error; a run that returns is correct.
func runOne(e *env, spec *benchSpec, w workloadDef, sz sizes, seed uint64, seconds float64, trace int) (result, error) {
	res := result{Workload: w.name, Seed: seed, Trace: trace}
	if w.needsServer {
		if err := e.buildServer(); err != nil {
			return res, err
		}
	}
	t0 := time.Now()
	if trace == 1 {
		got, counts, err := tracePass(e, w, sz, seed)
		if err != nil {
			return res, err
		}
		res.Rounds = 1
		res.Attempted, res.Failed = counts.attempted, counts.failed
		if res.Metrics, err = conform(spec.PerLayer, got, false); err != nil {
			return res, err
		}
		printMetrics(e, fmt.Sprintf("%s seed %d: per-layer metrics (quarter-size traced pass, %.1fs)", w.name, seed, time.Since(t0).Seconds()), spec.PerLayer, res.Metrics)
	} else {
		measured := sz
		measured.HTTPOpen = 0 // the open-loop phase belongs to the traced pass
		rounds, err := runRounds(e, w, measured, seed, seconds)
		if err != nil {
			return res, err
		}
		if w.name == "batch_drain" {
			if err := checkPolishQuality(); err != nil {
				return res, err
			}
		}
		got, raw, err := foldEndToEnd(rounds, w.memoryBound)
		if err != nil {
			return res, err
		}
		res.Rounds = len(rounds)
		res.MakespanS = rounds[0].makespan.Seconds()
		for _, r := range rounds {
			res.Attempted += r.attempted
			res.Failed += r.failed
		}
		if res.Metrics, err = conform(spec.EndToEnd, got, true); err != nil {
			return res, err
		}
		for _, m := range spec.EndToEnd {
			if v := res.Metrics[m.Name].Value; !(v > 0) {
				return res, fmt.Errorf("metric %s reads %v", m.Name, v)
			}
		}
		printMetrics(e, fmt.Sprintf("%s seed %d: end-to-end metrics at reference speed (calm quartile of %d rounds, n per round; %.1fs; virtual makespan %v)",
			w.name, seed, len(rounds), time.Since(t0).Seconds(), rounds[0].makespan), spec.EndToEnd, res.Metrics)
		for i, r := range rounds {
			ls := durationSeries(r.lat, time.Millisecond)
			p90, _ := ls.quantile(0.90)
			e.logf("  round %d: jobs_per_s %.5g job_p50_ms %.5g job_p90_ms %.5g cpu_ms_per_job %.5g setup_s %.4g ref_work_ms %.4g ref_mem_ms %.4g",
				i+1, float64(r.jobs)/r.wall.Seconds(), ls.median(), p90, float64(r.cpu)/1e6/float64(r.jobs), r.setup.Seconds(),
				durationSeries(r.ref, time.Millisecond).median(), durationSeries(r.refMem, time.Millisecond).median())
		}
		extra := foldExtra(rounds)
		for k, v := range raw {
			extra[k] = v
		}
		extra["job_p50_ms"] = got["job_p50_ms"] // ungated: see README, "Percentiles"
		var names []metricSpec
		for _, n := range sortedNames(extra) {
			names = append(names, metricSpec{Name: n})
		}
		printMetrics(e, "  as the clock read them, and the workload's own figures, ungated (median of rounds):", names, extra)
		if _, err := durationSeries(rounds[0].lat, time.Millisecond).quantile(0.99); err != nil {
			e.logf("  p99 refused: %v", err)
		}
	}
	if res.Failed > 0 {
		return res, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	res.Correct = true
	return res, nil
}
