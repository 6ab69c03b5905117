package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// sizes are the job counts of one round of each workload. A run repeats
// rounds on fresh servers and engines until its time is spent, so the
// counts — not the clock — fix how much state a server has accumulated when
// it is measured (POST /api/jobs is not stationary; see README).
type sizes struct {
	Name string `json:"scale"`
	// MinRounds rounds run however short the time budget.
	MinRounds int `json:"min_rounds"`

	HTTPWarm   int `json:"http_warm"`
	HTTPClosed int `json:"http_closed"`
	// The open-loop phase runs in the traced pass only: see httpPhases.
	HTTPOpen int     `json:"http_open_traced"`
	HTTPRate float64 `json:"http_open_rate_per_s"`

	BurstJobs int `json:"burst_jobs"`
	DrainJobs int `json:"drain_jobs"`

	TCPWarm        int `json:"tcp_warm"`
	TCPJobs        int `json:"tcp_jobs"`
	TCPOutstanding int `json:"tcp_outstanding"`

	CrashJobs int `json:"crash_jobs"`
}

var fullSizes = sizes{
	Name: "full", MinRounds: 2,
	HTTPWarm: 30, HTTPClosed: 120, HTTPOpen: 100, HTTPRate: 20,
	BurstJobs: 3000,
	DrainJobs: 300,
	TCPWarm:   12, TCPJobs: 100, TCPOutstanding: 32,
	CrashJobs: 4000,
}

// The smoke sizes keep 100 latency samples per round on the process
// workloads: p90 is refused below that.
var smokeSizes = sizes{
	Name: "smoke", MinRounds: 1,
	HTTPWarm: 4, HTTPClosed: 100, HTTPOpen: 24, HTTPRate: 40,
	BurstJobs: 400,
	DrainJobs: 120,
	TCPWarm:   4, TCPJobs: 100, TCPOutstanding: 32,
	CrashJobs: 400,
}

// quarter is the size of the traced replay: a quarter of every measured
// count, warm-ups kept.
func (s sizes) quarter() sizes {
	q := s
	q.Name = s.Name + "/4"
	q.MinRounds = 1
	for _, p := range []*int{&q.HTTPOpen, &q.HTTPClosed, &q.BurstJobs, &q.DrainJobs, &q.TCPJobs, &q.CrashJobs} {
		if *p = *p / 4; *p < 24 {
			*p = 24 // p50 needs samples; p90 needs 10 beyond it
		}
	}
	return q
}

// env is what every workload needs from the process: where to put files,
// the server binary, the submitter count, and a place to register cleanup.
type env struct {
	root      string // scratch directory inside the checkout, removed at exit
	serverBin string // built gyan-server, "" until buildServer
	c         int    // HTTP connections: nproc-1, within [1, 4]
	submit    int    // in-process submitters: min(nproc, 4)
	log       io.Writer
	clean     *cleanup
}

// cleanup runs registered functions once, last first: on normal exit, on a
// failed gate and on SIGINT/SIGTERM alike, so no child process or scratch
// directory outlives the benchmark.
type cleanup struct {
	mu  sync.Mutex
	fns []*func()
}

// add registers fn and returns a function that withdraws it.
func (c *cleanup) add(fn func()) (forget func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot := &fn
	c.fns = append(c.fns, slot)
	return func() {
		c.mu.Lock()
		*slot = nil
		c.mu.Unlock()
	}
}

func (c *cleanup) run() {
	for {
		c.mu.Lock()
		if len(c.fns) == 0 {
			c.mu.Unlock()
			return
		}
		fn := *c.fns[len(c.fns)-1]
		c.fns = c.fns[:len(c.fns)-1]
		c.mu.Unlock()
		if fn != nil {
			fn()
		}
	}
}

func newEnv(log io.Writer) (*env, error) {
	base, err := filepath.Abs(".bench_build")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	// Against a server process one core is the load generator's: a generator
	// that competes with the server for its cores measures the scheduler.
	// In-process submitters are the load and mostly wait for the disk.
	e := &env{root: root, c: runtime.NumCPU() - 1, submit: runtime.NumCPU(), log: log, clean: &cleanup{}}
	if e.c < 1 {
		e.c = 1
	}
	if e.c > 4 {
		e.c = 4
	}
	if e.submit > 4 {
		e.submit = 4
	}
	e.clean.add(func() { _ = os.RemoveAll(root) })
	return e, nil
}

// tempDir makes a fresh directory under the run's scratch root.
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.root, prefix+"-")
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// round is one measured repetition of a workload on a fresh server or
// engine.
type round struct {
	setup       time.Duration   // from the round's start to its measured phase
	ref, refMem []time.Duration // both halves of the reference work, timed just before the round
	jobs        int             // jobs that reached ok in the measured phase
	wall        time.Duration   // the measured phase
	cpu         time.Duration   // serving CPU over the measured phase
	lat         []time.Duration // one per request of the latency-bearing phase
	attempted   int
	failed      int
	// extra carries the workload's own figures (acks_per_s, recover_ms,
	// alloc_kb_per_job, counts...), folded by median across rounds.
	extra map[string]float64
	// makespan is the virtual time the engine reports at drain; it must not
	// change from round to round or from commit to commit.
	makespan time.Duration
}

func (r *round) set(name string, v float64) {
	if r.extra == nil {
		r.extra = map[string]float64{}
	}
	r.extra[name] = v
}

// deck deals n cards of the given kinds in exact proportion (shares sum to
// 1), shuffled by seed: every seed sees the same mix in a different order,
// so run-to-run differences are the system's, not the sample's.
func deck(seed uint64, n int, shares []float64) []int {
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	acc := 0.0
	for kind, share := range shares {
		acc += share
		for upto := int(acc*float64(n) + 0.5); len(out) < upto && len(out) < n; {
			out = append(out, kind)
		}
	}
	for len(out) < n {
		out = append(out, 0)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// decks deals one deck per phase and lays them end to end, so that every
// phase of a round — warm-up, measured, open loop — sees the exact mix
// whatever the seed: a phase cut out of one long deck would hold a share of
// slow jobs that varies with the seed, and its duration with it.
func decks(seed uint64, shares []float64, phases ...int) []int {
	var out []int
	for i, n := range phases {
		out = append(out, deck(seed*uint64(len(phases))+uint64(i), n, shares)...)
	}
	return out
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// localHeap reads this process's MemStats; with gc it collects first, so
// heapAlloc is live memory.
func localHeap(gc bool) heapStats {
	if gc {
		runtime.GC()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heapStats{totalAlloc: float64(m.TotalAlloc), heapAlloc: float64(m.HeapAlloc), pauseNS: float64(m.PauseTotalNs)}
}

// sliceRate is the median completion rate over ten equal slices of a phase:
// done holds each completion's offset from the phase start, in completion
// order. One stall then moves one slice, not the figure.
func sliceRate(done []time.Duration) float64 {
	const slices = 10
	per := len(done) / slices
	if per < 1 {
		return 0
	}
	var rates []float64
	prev := time.Duration(0)
	for s := 0; s < slices; s++ {
		end := done[(s+1)*per-1]
		if d := end - prev; d > 0 {
			rates = append(rates, float64(per)/d.Seconds())
		}
		prev = end
	}
	return medianOf(rates)
}

// timeOp runs fn n times and returns the median nanoseconds of one call,
// taken over batches so that a single stall moves one batch.
func timeOp(n int, fn func()) float64 {
	const batches = 9
	per := n / batches
	if per < 1 {
		per = 1
	}
	out := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		out = append(out, float64(time.Since(t0))/float64(per))
	}
	return medianOf(out)
}
