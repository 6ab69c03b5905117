package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// workloadDef is one named workload: a round on the real path and a traced
// replay of the same round in-process.
type workloadDef struct {
	name string
	// round runs one untraced repetition on a fresh server or engine.
	round func(e *env, sz sizes, seed uint64) (*round, error)
	// traced replays the workload in-process with spans at every seam.
	traced func(e *env, sz sizes, seed uint64, tr *tracer) (*round, error)
	// needsServer says the untraced path drives real gyan-server processes.
	needsServer bool
	// memoryBound picks the half of the reference work this workload's speed
	// is corrected by: a server that retains half a megabyte per job and a
	// tool that fills alignment matrices follow the memory half (refMem); the
	// orchestration path, which encodes records and parses device reports,
	// follows the record half (refWork).
	memoryBound bool
}

var workloads = []workloadDef{
	{name: "http_jobs", round: httpRound, traced: httpReplay, needsServer: true, memoryBound: true},
	{name: "dispatch_burst",
		round: func(e *env, sz sizes, seed uint64) (*round, error) {
			return dispatchRound(e, burstSpec(sz, e.submit), seed, nil)
		},
		traced: func(e *env, sz sizes, seed uint64, tr *tracer) (*round, error) {
			return dispatchRound(e, burstSpec(sz, e.submit), seed, tr)
		}},
	{name: "batch_drain", memoryBound: true,
		round: func(e *env, sz sizes, seed uint64) (*round, error) {
			return dispatchRound(e, drainSpec(sz), seed, nil)
		},
		traced: func(e *env, sz sizes, seed uint64, tr *tracer) (*round, error) {
			return dispatchRound(e, drainSpec(sz), seed, tr)
		}},
	{name: "tcp_cluster", round: tcpRound, traced: tcpReplay, needsServer: true},
	{name: "crash_recover",
		round:  func(e *env, sz sizes, seed uint64) (*round, error) { return crashRound(e, sz, seed, nil) },
		traced: crashRound},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metric is one reported figure. N is the number of samples behind it and
// is printed beside it; the result line carries value and unit only.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Rounds    int               `json:"rounds"`
	// MakespanS is the virtual time at which the engine drained: a function
	// of the seed and sizes alone, so it must not differ between commits.
	MakespanS float64 `json:"virtual_makespan_s,omitempty"`
}

// runRounds repeats rounds of w, each on a fresh server or engine, for as
// long as another round fits into seconds, and at least sz.MinRounds times.
// Before every round it times the reference work (refwork.go), so that the
// run knows how fast the machine was while it measured. Every round's
// virtual makespan must equal the first's: the modelled schedule is a
// function of the seed alone.
func runRounds(e *env, w workloadDef, sz sizes, seed uint64, seconds float64) ([]*round, error) {
	probes := 2
	if w.needsServer {
		probes = 4 // these rounds last seconds, not one
	}
	var rounds []*round
	var longest time.Duration
	start := time.Now()
	for len(rounds) < sz.MinRounds || (time.Since(start)+longest).Seconds() < seconds {
		t0 := time.Now()
		var ref, refM []time.Duration
		for i := 0; i < probes; i++ {
			ref = append(ref, refWork())
			refM = append(refM, refMem())
		}
		r, err := w.round(e, sz, seed)
		if err != nil {
			return nil, err
		}
		r.ref, r.refMem = ref, refM
		if len(rounds) > 0 && r.makespan != rounds[0].makespan {
			return nil, fmt.Errorf("%s: virtual makespan %v in round %d, %v in round 1: the modelled result moved",
				w.name, r.makespan, len(rounds)+1, rounds[0].makespan)
		}
		rounds = append(rounds, r)
		if d := time.Since(t0); d > longest {
			longest = d
		}
	}
	return rounds, nil
}

// calm is the quantile of a run's rounds that the run reports: the value a
// quarter of the rounds beat. The sandbox shares its cores, caches and disk
// with neighbours whose load comes and goes within seconds; their
// disturbances only ever slow a round down, so the calmer rounds of a run
// say more about the code than its median round does, and the single best
// round is one lucky draw. The reference work is folded the same way, so the
// two describe the same moments of the run.
const calm = 0.25

// calmOf is the calm quantile of a series where lower is better; for a
// rate, pass the reciprocals.
func calmOf(v []float64) float64 {
	s := newSeries(v)
	if s.n() == 0 {
		return 0
	}
	rank := int(math.Ceil(calm * float64(s.n())))
	if rank < 1 {
		rank = 1
	}
	return s.sorted[rank-1]
}

// foldEndToEnd turns a run's rounds into its end-to-end metrics. Each
// figure is the calm quantile of the rounds' own figures (latency quantiles
// are exact and taken within a round, never across rounds), quoted at the
// reference speed: divided by how much slower than refNominal the reference
// work ran during this run. raw holds the same figures as the clock read
// them, and the speed they were corrected by.
func foldEndToEnd(rounds []*round, memoryBound bool) (gated, raw map[string]metric, err error) {
	var perJob, cpu, p50, p90, setup, ref, refM []float64
	jobs, samples := 0, 0
	for i, r := range rounds {
		if r.jobs == 0 || r.wall <= 0 {
			return nil, nil, fmt.Errorf("round %d completed no jobs", i+1)
		}
		ls := durationSeries(r.lat, time.Millisecond)
		q90, err := ls.quantile(0.90)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		perJob = append(perJob, r.wall.Seconds()/float64(r.jobs))
		cpu = append(cpu, float64(r.cpu)/1e6/float64(r.jobs))
		p50 = append(p50, ls.median())
		p90 = append(p90, q90)
		setup = append(setup, r.setup.Seconds())
		for _, d := range r.ref {
			ref = append(ref, float64(d))
		}
		for _, d := range r.refMem {
			refM = append(refM, float64(d))
		}
		jobs, samples = r.jobs, ls.n()
	}
	if len(ref) == 0 || len(refM) == 0 {
		return nil, nil, fmt.Errorf("the reference work was not timed")
	}
	// Above 1: the machine ran slower than the reference box.
	slow := calmOf(ref) / float64(refNominal)
	if memoryBound {
		slow = calmOf(refM) / float64(refMemNominal)
	}
	n := len(rounds)
	raw = map[string]metric{
		"raw.setup_s":         {Value: calmOf(setup), Unit: "s", N: n},
		"raw.jobs_per_s":      {Value: 1 / calmOf(perJob), Unit: "jobs/s", N: jobs},
		"raw.job_p50_ms":      {Value: calmOf(p50), Unit: "ms", N: samples},
		"raw.job_p90_ms":      {Value: calmOf(p90), Unit: "ms", N: samples},
		"raw.cpu_ms_per_job":  {Value: calmOf(cpu), Unit: "ms", N: jobs},
		"loadgen.ref_work_ms": {Value: calmOf(ref) / 1e6, Unit: "ms", N: len(ref)},
		"loadgen.ref_mem_ms":  {Value: calmOf(refM) / 1e6, Unit: "ms", N: len(refM)},
		"loadgen.slowdown":    {Value: slow, N: len(ref)},
	}
	gated = map[string]metric{}
	for name, m := range raw {
		short, isRaw := strings.CutPrefix(name, "raw.")
		if !isRaw {
			continue
		}
		if short == "jobs_per_s" {
			m.Value *= slow
		} else {
			m.Value /= slow
		}
		gated[short] = m
	}
	return gated, raw, nil
}

// foldExtra folds the rounds' own figures: the median of each over rounds.
func foldExtra(rounds []*round) map[string]metric {
	values := map[string][]float64{}
	for _, r := range rounds {
		for k, v := range r.extra {
			values[k] = append(values[k], v)
		}
	}
	out := map[string]metric{}
	for k, v := range values {
		out[k] = metric{Value: medianOf(v), N: len(v)}
	}
	return out
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
