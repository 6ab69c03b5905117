package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Set(4)
	c.Inc()
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registering the same name returns the same series.
	if r.Counter("c_total", "a counter") != c {
		t.Fatal("re-registration built a new counter")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestVecSeriesAreIndependent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("jobs_total", "by tool", "tool")
	v.With("racon").Set(3)
	v.With("bonito").Inc()
	if v.With("racon").Value() != 3 || v.With("bonito").Value() != 1 {
		t.Fatalf("series bled into each other: racon=%d bonito=%d",
			v.With("racon").Value(), v.With("bonito").Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5, 10})
	for _, v := range []float64{0.5, 1.5, 1.5, 4, 4, 4, 8, 8, 8, 8} {
		h.Observe(v)
	}
	if h.Count() != 10 {
		t.Fatalf("count = %d, want 10", h.Count())
	}
	if got, want := h.Sum(), 47.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	p50 := h.Quantile(0.5)
	if p50 < 2 || p50 > 5 {
		t.Fatalf("p50 = %v, want within (2, 5]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 5 || p99 > 10 {
		t.Fatalf("p99 = %v, want within (5, 10]", p99)
	}
	if q := h.Quantile(0.05); q < 0 || q > 1 {
		t.Fatalf("p5 = %v, want within [0, 1]", q)
	}
}

func TestHistogramOverflowClampsToLastBound(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(100)
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile = %v, want clamp to 2", got)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram(DefLatencyBuckets())
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

// TestExpositionGolden pins the Prometheus text format byte for byte: HELP
// and TYPE lines, label rendering, cumulative buckets with le, _sum and
// _count, and name-sorted family order.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("gyan_jobs_submitted_total", "Jobs accepted by Submit, by tool.", "tool")
	v.With("racon").Set(3)
	v.With("bonito").Inc()
	r.Gauge("gyan_alive", "Liveness gauge.").Set(1)
	h := r.Histogram("gyan_wait_seconds", "Queue wait.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP gyan_alive Liveness gauge.
# TYPE gyan_alive gauge
gyan_alive 1
# HELP gyan_jobs_submitted_total Jobs accepted by Submit, by tool.
# TYPE gyan_jobs_submitted_total counter
gyan_jobs_submitted_total{tool="bonito"} 1
gyan_jobs_submitted_total{tool="racon"} 3
# HELP gyan_wait_seconds Queue wait.
# TYPE gyan_wait_seconds histogram
gyan_wait_seconds_bucket{le="0.1"} 1
gyan_wait_seconds_bucket{le="1"} 2
gyan_wait_seconds_bucket{le="+Inf"} 3
gyan_wait_seconds_sum 30.55
gyan_wait_seconds_count 3
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestOnScrapeRunsBeforeExposition(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("mirrored", "set at scrape time")
	calls := 0
	r.OnScrape(func() { calls++; g.Set(float64(calls)) })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !strings.Contains(sb.String(), "mirrored 1") {
		t.Fatalf("hook ran %d times; exposition:\n%s", calls, sb.String())
	}
	snap := r.Snapshot()
	if calls != 2 || snap["mirrored"] != 2 {
		t.Fatalf("snapshot hook: calls=%d mirrored=%v", calls, snap["mirrored"])
	}
}

func TestSnapshotFlattensHistograms(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", DefLatencyBuckets())
	for i := 0; i < 100; i++ {
		h.ObserveDuration(time.Duration(i+1) * time.Millisecond)
	}
	snap := r.Snapshot()
	if snap["lat_seconds_count"] != 100 {
		t.Fatalf("count = %v", snap["lat_seconds_count"])
	}
	if p99 := snap["lat_seconds_p99"]; p99 < 0.05 || p99 > 0.25 {
		t.Fatalf("p99 = %v, want near 0.1", p99)
	}
	if p50 := snap["lat_seconds_p50"]; p50 < 0.025 || p50 > 0.1 {
		t.Fatalf("p50 = %v, want near 0.05", p50)
	}
}

// TestRegistryConcurrentUse hammers series creation, recording and scraping
// from many goroutines; run under -race this is the registry's thread-safety
// proof.
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("hits_total", "by key", "key")
	h := r.Histogram("obs_seconds", "observations", DefLatencyBuckets())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys := []string{"a", "b", "c", "d"}
			for n := 0; n < 500; n++ {
				v.With(keys[n%len(keys)]).Inc()
				h.Observe(float64(n%7) * 0.01)
				if n%100 == 0 {
					var sb strings.Builder
					_ = r.WritePrometheus(&sb)
				}
			}
		}(i)
	}
	wg.Wait()
	total := uint64(0)
	for _, k := range []string{"a", "b", "c", "d"} {
		total += v.With(k).Value()
	}
	if total != 8*500 {
		t.Fatalf("lost increments: %d != %d", total, 8*500)
	}
	if h.Count() != 8*500 {
		t.Fatalf("lost observations: %d", h.Count())
	}
}
