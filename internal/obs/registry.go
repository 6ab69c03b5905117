// Package obs is the observability substrate: a lock-cheap metrics registry
// (counters, gauges, fixed-bucket histograms), recorded from the same seams
// the job-state journal already writes through.
// Everything the dispatcher learns about itself — jobs by state, queue-wait
// and completion latency tails, journal fsync batching, survey-cache
// efficiency — flows through one Registry and is served as Prometheus text
// exposition by the API server's GET /metrics.
//
// Design constraints, in order:
//
//   - Recording must be cheap enough for the submit hot path: counters and
//     gauges are single atomic ops, histogram observation is one atomic
//     bucket increment plus a CAS loop on the running sum. Nothing on the
//     record path allocates after the series exists.
//   - Cardinality is bounded by construction: label values are tool IDs,
//     destination IDs, states, fault classes and device minors — never job
//     IDs. Per-job data is each job's own trail, kept by the engine
//     (internal/galaxy), not labels.
//   - Scrape-time work is explicit: OnScrape hooks let owners mirror
//     externally-maintained counters (journal stats, survey-cache hits)
//     into the registry only when someone is actually looking.
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Set overwrites the count. It exists for counters that mirror an external
// monotonic source at scrape time (journal stats, survey-cache hits); hot
// paths should use Inc.
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// A Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// A Histogram counts observations into fixed buckets. Buckets are
// cumulative-exclusive on record (each observation lands in exactly one
// bucket) and rendered cumulatively in the exposition, matching Prometheus
// semantics.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits of the running sum
}

// NewHistogram builds a standalone histogram over the given ascending upper
// bounds. Registry owners normally use Registry.Histogram instead; the bare
// constructor exists for benchmark harnesses that want tails without a
// registry.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// DefLatencyBuckets covers the virtual-time latencies the dispatcher deals
// in: sub-millisecond submit acks through multi-hour queue waits.
func DefLatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
		1000, 2500, 5000, 10000,
	}
}

// DefBatchBuckets covers batch sizes (records per fsync, gang widths):
// powers of two through the group-commit ring bound.
func DefBatchBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// First bound >= v; sort.SearchFloat64s is allocation-free.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the bucket holding the target rank. The lowest bucket interpolates
// from zero; the overflow bucket reports its lower bound (the histogram
// cannot see past its last boundary). Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) {
				return lo // overflow bucket: clamp to the last boundary
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// metricKind discriminates registry families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family. Its label text is
// rendered once, when the series is created, so a scrape only copies it.
type series struct {
	key  string   // label values joined by NUL: the family's map and sort key
	text string   // {k="v",...}, or "" without labels
	le   []string // histograms: text plus each bucket's le, +Inf last
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// family is one named metric with zero or more labeled series.
type family struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string
	buckets    []float64 // histograms only

	mu     sync.RWMutex
	series map[string]*series
	sorted []*series // by key, the exposition order
}

func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{key: key, text: labelText(f.labelNames, labelValues, "")}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = NewHistogram(f.buckets)
		for _, bound := range s.h.bounds {
			s.le = append(s.le, labelText(f.labelNames, labelValues, string(appendFloat(nil, bound))))
		}
		s.le = append(s.le, labelText(f.labelNames, labelValues, "+Inf"))
	}
	f.series[key] = s
	i := sort.Search(len(f.sorted), func(i int) bool { return f.sorted[i].key > key })
	f.sorted = slices.Insert(f.sorted, i, s)
	return s
}

// Registry is a set of named metric families plus scrape hooks. All methods
// are safe for concurrent use; series handles, once obtained, never require
// the registry again.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	sorted   []*family // by name, the exposition order
	hooks    []func()
	// size is the last exposition's length: the next scrape's buffer.
	size atomic.Int64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnScrape registers a hook run at the start of every WritePrometheus and
// Snapshot call — the place to mirror externally-maintained stats into the
// registry only when someone is looking.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// registerFamily interns a family, verifying that a re-registration agrees
// on kind and labels (re-registration returns the existing family, so
// package-level wiring can be idempotent).
func (r *Registry) registerFamily(name, help string, kind metricKind, labelNames []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("obs: metric %s re-registered as a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		series:     make(map[string]*series),
	}
	r.families[name] = f
	i := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].name > name })
	r.sorted = slices.Insert(r.sorted, i, f)
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.registerFamily(name, help, kindCounter, nil, nil).get(nil).c
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.registerFamily(name, help, kindGauge, nil, nil).get(nil).g
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// ascending bucket upper bounds.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.registerFamily(name, help, kindHistogram, nil, buckets).get(nil).h
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on first
// use.
func (v CounterVec) With(labelValues ...string) *Counter { return v.f.get(labelValues).c }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) CounterVec {
	return CounterVec{r.registerFamily(name, help, kindCounter, labelNames, nil)}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values, creating it on first
// use.
func (v GaugeVec) With(labelValues ...string) *Gauge { return v.f.get(labelValues).g }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) GaugeVec {
	return GaugeVec{r.registerFamily(name, help, kindGauge, labelNames, nil)}
}

// runHooks fires the scrape hooks outside the registry lock (hooks may set
// series, which takes family locks). OnScrape only appends, so the slice
// read under the lock stays valid without it.
func (r *Registry) runHooks() {
	r.mu.RLock()
	hooks := r.hooks
	r.mu.RUnlock()
	for _, fn := range hooks {
		fn()
	}
}

// appendFloat appends a value the way Prometheus text format expects.
func appendFloat(b []byte, v float64) []byte {
	if math.IsInf(v, +1) {
		return append(b, "+Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// labelText renders {k="v",...} for a series' labels, with le="..." after
// them when le is set; no labels and no le render nothing. Values are quoted
// as Go quotes strings.
func labelText(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	b := []byte{'{'}
	for i, n := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(append(append(b, n...), '='), values[i])
	}
	if le != "" {
		if len(names) > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(append(b, "le="...), le)
	}
	return string(append(b, '}'))
}

// WritePrometheus runs the scrape hooks, then writes the whole registry in
// Prometheus text exposition format (families sorted by name, series by
// label values, histograms as cumulative le buckets plus _sum and _count).
// The exposition is appended into one buffer, sized by the previous scrape,
// and written once: a scrape allocates that buffer and what the hooks do.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.runHooks()
	b := make([]byte, 0, r.size.Load())
	r.mu.RLock()
	for _, f := range r.sorted {
		b = f.appendText(b)
	}
	r.mu.RUnlock()
	r.size.Store(int64(len(b)))
	_, err := w.Write(b)
	return err
}

// appendText appends the family's HELP and TYPE lines and every series.
func (f *family) appendText(b []byte) []byte {
	b = append(append(append(append(b, "# HELP "...), f.name...), ' '), f.help...)
	b = append(append(append(append(b, "\n# TYPE "...), f.name...), ' '), f.kind.String()...)
	b = append(b, '\n')
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, s := range f.sorted {
		switch f.kind {
		case kindCounter:
			b = strconv.AppendUint(sample(b, f.name, "", s.text), s.c.Value(), 10)
		case kindGauge:
			b = appendFloat(sample(b, f.name, "", s.text), s.g.Value())
		case kindHistogram:
			h := s.h
			cum := uint64(0)
			for i, le := range s.le {
				cum += h.counts[i].Load()
				b = strconv.AppendUint(sample(b, f.name, "_bucket", le), cum, 10)
				b = append(b, '\n')
			}
			b = appendFloat(sample(b, f.name, "_sum", s.text), h.Sum())
			b = append(b, '\n')
			b = strconv.AppendUint(sample(b, f.name, "_count", s.text), h.count.Load(), 10)
		}
		b = append(b, '\n')
	}
	return b
}

// sample appends a sample line's name, suffix and label text and the space
// before its value.
func sample(b []byte, name, suffix, labels string) []byte {
	return append(append(append(append(b, name...), suffix...), labels...), ' ')
}

// Snapshot runs the scrape hooks and flattens the registry into a metric
// map: counters and gauges by name (labels folded in as name{k=v}), and
// histograms as _count, _sum, _p50, _p95 and _p99 entries. Experiments use
// it to fold observability tails into their BENCH JSON metrics.
func (r *Registry) Snapshot() map[string]float64 {
	r.runHooks()
	out := make(map[string]float64)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, f := range r.sorted {
		f.mu.RLock()
		for _, s := range f.sorted {
			name := f.name + s.text
			switch f.kind {
			case kindCounter:
				out[name] = float64(s.c.Value())
			case kindGauge:
				out[name] = s.g.Value()
			case kindHistogram:
				out[name+"_count"] = float64(s.h.Count())
				out[name+"_sum"] = s.h.Sum()
				out[name+"_p50"] = s.h.Quantile(0.50)
				out[name+"_p95"] = s.h.Quantile(0.95)
				out[name+"_p99"] = s.h.Quantile(0.99)
			}
		}
		f.mu.RUnlock()
	}
	return out
}
