package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the contract the output is checked against.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 || len(s.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no metrics or workloads declared", path)
	}
	return &s, nil
}

// conform shapes a run's metrics to the declared list: exactly the declared
// names, each with its declared unit. An end-to-end metric the run did not
// produce is an error; a per-layer metric of a layer the workload does not
// touch reads zero.
func conform(declared []metricSpec, got map[string]metric, requireAll bool) (map[string]metric, error) {
	out := make(map[string]metric, len(declared))
	for _, d := range declared {
		m, ok := got[d.Name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		m.Unit = d.Unit
		out[d.Name] = m
	}
	return out, nil
}
