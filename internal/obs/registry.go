// Package obs is the observability substrate: a lock-cheap metrics registry
// (counters, gauges, fixed-bucket histograms) plus per-job lifecycle traces,
// recorded from the same seams the job-state journal already writes through.
// Everything the dispatcher learns about itself — jobs by state, queue-wait
// and completion latency tails, journal fsync batching, survey-cache
// efficiency — flows through one Registry and is served as Prometheus text
// exposition by the API server's GET /metrics.
//
// Design constraints, in order:
//
//   - Recording must be cheap enough for the submit hot path: counters and
//     gauges are single atomic ops, histogram observation is one atomic
//     bucket increment plus a CAS loop on the running sum, and trace
//     recording is one slice append under the tracer's lock. Nothing on the
//     record path allocates after the series exists.
//   - Cardinality is bounded by construction: label values are tool IDs,
//     destination IDs, states, fault classes and device minors — never job
//     IDs. Per-job data lives in the Tracer, which is bounded by an
//     eviction ring instead of labels.
//   - Scrape-time work is explicit: OnScrape hooks let owners mirror
//     externally-maintained counters (journal stats, survey-cache hits)
//     into the registry only when someone is actually looking.
package obs

import (
	"fmt"
	"io"
	"math"
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

// series is one labeled instance within a family.
type series struct {
	labels []string // values, aligned with family.labelNames
	c      *Counter
	g      *Gauge
	h      *Histogram
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
	order  []string // insertion order of series keys, sorted at exposition
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
	s = &series{labels: append([]string(nil), labelValues...)}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = NewHistogram(f.buckets)
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Registry is a set of named metric families plus scrape hooks. All methods
// are safe for concurrent use; series handles, once obtained, never require
// the registry again.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string
	hooks    []func()
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
	r.names = append(r.names, name)
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

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values, creating it on
// first use.
func (v HistogramVec) With(labelValues ...string) *Histogram { return v.f.get(labelValues).h }

// HistogramVec registers (or fetches) a labeled histogram family with the
// given ascending bucket upper bounds.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) HistogramVec {
	return HistogramVec{r.registerFamily(name, help, kindHistogram, labelNames, buckets)}
}

// runHooks fires the scrape hooks outside the registry lock (hooks may set
// series, which takes family locks).
func (r *Registry) runHooks() {
	r.mu.RLock()
	hooks := append(make([]func(), 0, len(r.hooks)), r.hooks...)
	r.mu.RUnlock()
	for _, fn := range hooks {
		fn()
	}
}

// formatFloat renders a sample value the way Prometheus text format expects.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...} for a series; empty labels render nothing.
func labelString(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", n, values[i])
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if sb.Len() > 1 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", extra[i], extra[i+1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// WritePrometheus runs the scrape hooks, then writes the whole registry in
// Prometheus text exposition format (families sorted by name, series by
// label values, histograms as cumulative le buckets plus _sum and _count).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.runHooks()
	r.mu.RLock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		f.mu.RLock()
		keys := append([]string(nil), f.order...)
		f.mu.RUnlock()
		sort.Strings(keys)
		for _, key := range keys {
			f.mu.RLock()
			s := f.series[key]
			f.mu.RUnlock()
			ls := labelString(f.labelNames, s.labels)
			var err error
			switch f.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, ls, s.c.Value())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, ls, formatFloat(s.g.Value()))
			case kindHistogram:
				err = writeHistogram(w, f, s, ls)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one histogram series with cumulative buckets.
func writeHistogram(w io.Writer, f *family, s *series, _ string) error {
	h := s.h
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		ls := labelString(f.labelNames, s.labels, "le", formatFloat(bound))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, ls, cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	ls := labelString(f.labelNames, s.labels, "le", "+Inf")
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, ls, cum); err != nil {
		return err
	}
	base := labelString(f.labelNames, s.labels)
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, base, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, base, h.count.Load())
	return err
}

// Snapshot runs the scrape hooks and flattens the registry into a metric
// map: counters and gauges by name (labels folded in as name{k=v}), and
// histograms as _count, _sum, _p50, _p95 and _p99 entries. Experiments use
// it to fold observability tails into their BENCH JSON metrics.
func (r *Registry) Snapshot() map[string]float64 {
	r.runHooks()
	out := make(map[string]float64)
	r.mu.RLock()
	fams := make([]*family, 0, len(r.names))
	for _, n := range r.names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.mu.RLock()
		keys := append([]string(nil), f.order...)
		f.mu.RUnlock()
		for _, key := range keys {
			f.mu.RLock()
			s := f.series[key]
			f.mu.RUnlock()
			name := f.name + labelString(f.labelNames, s.labels)
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
	}
	return out
}
