// Command gyanbench regenerates the paper's evaluation: every figure and
// every headline number of Section VI, printed as tables and console
// captures, plus the deterministic engine scenarios built on the same
// simulator (scheduling, fault recovery, failover, cluster scaling). Every
// number is virtual (modeled) time and a pure function of -seed; wall-clock
// performance is measured by `go run ./bench` and nowhere else.
//
// Usage:
//
//	gyanbench                     # run every experiment
//	gyanbench -experiment fig3    # one experiment
//	gyanbench -list               # list experiment IDs
//	gyanbench -seed 7 -quick      # smaller synthetic payloads
//	gyanbench -json               # machine-readable results on stdout
//	gyanbench -out RESULTS.json   # also write the JSON results to a file
//
// With -json the tables are suppressed and each experiment emits one object
// carrying its metrics map — for sched-backfill that includes the scheduler
// counters (mean/P99 queue wait, backfill counts) per
// dispatch mode. Experiments that drive a full engine also snapshot its
// internal/obs registry, so the JSON carries histogram tails rather than
// single numbers: chaos-dispatch reports per-policy queue-wait and sojourn
// tails plus retry counts, and crash-recovery cross-checks the recovery
// report against the standby observer's resubmit/adoption counters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"

	"gyan/internal/experiments"
)

// jsonResult is the machine-readable shape of one experiment: the rendered
// tables are replaced by the metrics map that tests assert on.
type jsonResult struct {
	ID      string             `json:"id"`
	Caption string             `json:"caption"`
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment ID to run, or 'all'")
		seed       = flag.Uint64("seed", 42, "seed for synthetic dataset generation")
		quick      = flag.Bool("quick", false, "shrink the real synthetic payloads (model numbers unchanged)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		parallel   = flag.Bool("parallel", false, "run experiments concurrently (each has its own simulated cluster)")
		asJSON     = flag.Bool("json", false, "emit results as JSON (one array of {id, caption, metrics})")
		outFile    = flag.String("out", "", "also write the JSON results array to this file")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			caption, _ := experiments.Caption(id)
			fmt.Printf("%-8s %s\n", id, caption)
		}
		return
	}

	opt := experiments.Options{Seed: *seed, Quick: *quick}
	ids := experiments.IDs()
	if *experiment != "all" {
		ids = []string{*experiment}
	}

	type outcome struct {
		res *experiments.Result
		err error
	}
	results := make([]outcome, len(ids))
	if *parallel {
		// Experiments are hermetic (each builds its own cluster and
		// clock), so they parallelize over host cores; output order is
		// preserved.
		var wg sync.WaitGroup
		for i, id := range ids {
			wg.Add(1)
			go func(i int, id string) {
				defer wg.Done()
				res, err := experiments.Run(id, opt)
				results[i] = outcome{res, err}
			}(i, id)
		}
		wg.Wait()
	} else {
		for i, id := range ids {
			res, err := experiments.Run(id, opt)
			results[i] = outcome{res, err}
		}
	}

	for i, id := range ids {
		if results[i].err != nil {
			fmt.Fprintf(os.Stderr, "gyanbench: %s: %v\n", id, results[i].err)
			os.Exit(1)
		}
	}

	jr := make([]jsonResult, len(ids))
	for i := range ids {
		res := results[i].res
		jr[i] = jsonResult{ID: res.ID, Caption: res.Caption, Metrics: res.Metrics}
	}

	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err == nil {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			err = enc.Encode(jr)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gyanbench: -out: %v\n", err)
			os.Exit(1)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jr); err != nil {
			fmt.Fprintf(os.Stderr, "gyanbench: %v\n", err)
			os.Exit(1)
		}
	} else {
		for i := range ids {
			res := results[i].res
			fmt.Printf("######## %s — %s\n\n", res.ID, res.Caption)
			for _, tb := range res.Tables {
				fmt.Println(tb)
			}
			for _, txt := range res.Text {
				fmt.Println(txt)
				fmt.Println()
			}
		}
	}
}
