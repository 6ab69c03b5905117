package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is the outcome of one metric on one workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictBetter     verdict = "better"
	verdictRegression verdict = "REGRESSION"
	verdictUnresolved verdict = "unresolved"
	verdictMissing    verdict = "missing"
)

// judge compares the runs of one end-to-end metric on one workload. b may
// be worse than a by at most bound, as a share of a's median. Where either
// side's own run-to-run spread (inter-quartile distance over median)
// exceeds the bound, the comparison cannot tell a change from noise and is
// unresolved — unless every run of b reads better than every run of a.
func judge(a, b []float64, lowerIsBetter bool, bound float64) (verdict, float64, float64) {
	if len(a) == 0 || len(b) == 0 {
		return verdictMissing, 0, 0
	}
	sa, sb := newSeries(a), newSeries(b)
	ma, mb := sa.median(), sb.median()
	if ma == 0 {
		return verdictMissing, 0, 0
	}
	worse := (mb - ma) / ma // as a share of a's median, positive = worse
	if !lowerIsBetter {
		worse = -worse
	}
	spread := sa.spread()
	if s := sb.spread(); s > spread {
		spread = s
	}
	if spread > bound {
		allBetter := sb.sorted[len(sb.sorted)-1] < sa.sorted[0]
		if !lowerIsBetter {
			allBetter = sb.sorted[0] > sa.sorted[len(sa.sorted)-1]
		}
		if allBetter {
			return verdictBetter, worse, spread
		}
		return verdictUnresolved, worse, spread
	}
	switch {
	case worse > bound:
		return verdictRegression, worse, spread
	case worse < -bound:
		return verdictBetter, worse, spread
	}
	return verdictOK, worse, spread
}

func readOut(path string) (*outFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric's untraced runs of one workload.
func (f *outFile) values(workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareFiles prints one row per workload and end-to-end metric and
// returns the exit code: 1 if any metric regressed past its bound.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) int {
	a, err := readOut(pathA)
	if err == nil {
		var b *outFile
		if b, err = readOut(pathB); err == nil {
			return compareOut(w, spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareOut(w io.Writer, spec *benchSpec, a, b *outFile) int {
	if a.Provenance.NProc != b.Provenance.NProc || a.Provenance.GoVersion != b.Provenance.GoVersion ||
		a.Provenance.JournalFS != b.Provenance.JournalFS || a.Sizes != b.Sizes {
		fmt.Fprintf(w, "warning: the two files come from different machines or sizes; their numbers are not comparable\n  A: %+v %+v\n  B: %+v %+v\n",
			a.Provenance, a.Sizes, b.Provenance, b.Sizes)
	}
	fmt.Fprintf(w, "A commit %s dirty=%v, B commit %s dirty=%v\n", a.Provenance.Commit, a.Provenance.Dirty, b.Provenance.Commit, b.Provenance.Dirty)
	fmt.Fprintf(w, "%-15s %-16s %4s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "runs", "A median", "B median", "worse", "spread", "bound", "verdict")
	regressions, unresolved := 0, 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			v, worse, spread := judge(va, vb, m.Better == "lower", m.Bound)
			switch v {
			case verdictRegression:
				regressions++
			case verdictUnresolved:
				unresolved++
			case verdictMissing:
				continue
			}
			fmt.Fprintf(w, "%-15s %-16s %2d/%-2d %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.Name, m.Name, len(va), len(vb), medianOf(va), medianOf(vb), 100*worse, 100*spread, 100*m.Bound, v)
		}
	}
	// The modelled schedule is a function of seed and sizes: a change that
	// moves a virtual makespan changed the model, not its speed.
	if a.Sizes == b.Sizes {
		for _, ra := range a.Runs {
			for _, rb := range b.Runs {
				if ra.Workload == rb.Workload && ra.Seed == rb.Seed && ra.Trace == 0 && rb.Trace == 0 &&
					ra.MakespanS != 0 && rb.MakespanS != 0 && ra.MakespanS != rb.MakespanS {
					fmt.Fprintf(w, "%-15s seed %d: virtual makespan %.6fs in A, %.6fs in B: the modelled result moved  %s\n",
						ra.Workload, ra.Seed, ra.MakespanS, rb.MakespanS, verdictRegression)
					regressions++
				}
			}
		}
	}
	fmt.Fprintf(w, "%d regressions, %d unresolved (spread above bound)\n", regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}
