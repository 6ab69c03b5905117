package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		lower  bool
		bound  float64
		expect verdict
	}{
		{"same runs are ok", steady, steady, true, 0.10, verdictOK},
		{"latency up a fifth regresses", steady, scale(steady, 1.2), true, 0.10, verdictRegression},
		{"latency up within the bound is ok", steady, scale(steady, 1.05), true, 0.10, verdictOK},
		{"throughput down a fifth regresses", steady, scale(steady, 0.8), false, 0.10, verdictRegression},
		{"throughput up a fifth is better", steady, scale(steady, 1.2), false, 0.10, verdictBetter},
		{"noise wider than the bound is unresolved, not unchanged",
			[]float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, steady, true, 0.10, verdictUnresolved},
		{"noisy but every run better is better",
			[]float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, scale(steady, 0.3), true, 0.10, verdictBetter},
		{"no runs on one side is missing", steady, nil, true, 0.10, verdictMissing},
	} {
		if got, _, _ := judge(tc.a, tc.b, tc.lower, tc.bound); got != tc.expect {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.expect)
		}
	}
}

func scale(v []float64, by float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * by
	}
	return out
}

func TestCompareOutExitsNonZeroOnlyOnRegression(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{
			{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.10},
			{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		},
	}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	file := func(rate, lat float64) *outFile {
		f := &outFile{}
		for i := 0; i < 5; i++ {
			wobble := 1 + 0.01*float64(i-2)
			f.Runs = append(f.Runs, result{Workload: "w", Metrics: map[string]metric{
				"jobs_per_s": {Value: rate * wobble, Unit: "jobs/s"},
				"job_p50_ms": {Value: lat * wobble, Unit: "ms"},
			}})
		}
		// A traced run's figures must not be mixed into the comparison.
		f.Runs = append(f.Runs, result{Workload: "w", Trace: 1, Metrics: map[string]metric{"jobs_per_s": {Value: 1}}})
		return f
	}
	var out bytes.Buffer
	if code := compareOut(&out, spec, file(1000, 5), file(1010, 5.1)); code != 0 {
		t.Errorf("two runs of the same code: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareOut(&out, spec, file(1000, 5), file(700, 5)); code != 1 {
		t.Errorf("a 30%% throughput loss: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), string(verdictRegression)) || !strings.Contains(out.String(), "1 regressions") {
		t.Errorf("regression not reported per workload:\n%s", out.String())
	}
	// Equal speed, different modelled schedule for the same seed.
	a, b := file(1000, 5), file(1000, 5)
	a.Runs[0].MakespanS, b.Runs[0].MakespanS = 1000.15, 1000.4
	out.Reset()
	if code := compareOut(&out, spec, a, b); code != 1 || !strings.Contains(out.String(), "virtual makespan") {
		t.Errorf("a moved virtual makespan: exit %d\n%s", code, out.String())
	}
}
