package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Parent names the span
// that caused it; spans of one job share Job. Times are nanoseconds since
// the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Job    int    `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so traced and untraced runs execute the same code.
type tracer struct {
	epoch time.Time
	// paused drops spans: a replay records only its measured phase.
	paused atomic.Bool

	mu    sync.Mutex
	spans []span
	// width is the number of concurrent lanes under a parent: its children
	// overlap in time, so their summed duration covers width times the wall
	// time they block.
	width map[string]int
	// est are layer costs that no seam exposes: a unit cost timed in
	// isolation times the count per job, charged against a parent span.
	est []estimate
}

type estimate struct {
	name, parent string
	perJobNS     float64
	callsPerJob  float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), width: map[string]int{}}
}

type openSpan struct {
	t            *tracer
	name, parent string
	job          int
	start        time.Time
}

func (t *tracer) start(name, parent string, job int) openSpan {
	if t == nil || t.paused.Load() {
		return openSpan{}
	}
	return openSpan{t: t, name: name, parent: parent, job: job, start: time.Now()}
}

func (s openSpan) end() {
	if s.t == nil {
		return
	}
	end := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{
		Name: s.name, Parent: s.parent, Job: s.job,
		Start: int64(s.start.Sub(s.t.epoch)), End: int64(end.Sub(s.t.epoch)),
	})
	s.t.mu.Unlock()
}

func (t *tracer) setWidth(parent string, lanes int) {
	if t == nil || lanes < 1 {
		return
	}
	t.mu.Lock()
	t.width[parent] = lanes
	t.mu.Unlock()
}

func (t *tracer) estimate(name, parent string, unitNS, callsPerJob float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.est = append(t.est, estimate{name: name, parent: parent, perJobNS: unitNS * callsPerJob, callsPerJob: callsPerJob})
	t.mu.Unlock()
}

// durations returns every span duration of one name, in the given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// layerRow is one line of the layer table: the wall time per job a layer
// accounts for after its children are subtracted.
type layerRow struct {
	Name        string  `json:"name"`
	Parent      string  `json:"parent,omitempty"`
	CallsPerJob float64 `json:"calls_per_job"`
	SelfUS      float64 `json:"self_us_per_job"`
	Share       float64 `json:"share_of_wall"`
	Estimated   bool    `json:"estimated,omitempty"`
}

type layerTable struct {
	Workload     string     `json:"workload"`
	Jobs         int        `json:"jobs"`
	WallUS       float64    `json:"wall_us_per_job"`
	Rows         []layerRow `json:"rows"`
	Unattributed float64    `json:"unattributed_us_per_job"`
}

// table folds the spans under root into per-layer self times per job. A
// span's blocking time is its duration divided by the widths of the spans
// above it; self time is blocking time minus that of its children. Estimated
// layers are charged to their parent the same way. What the rows do not
// sum to — estimates that overran the span they were charged to — is the
// unattributed remainder.
func (t *tracer) table(workload, root string, jobs int) layerTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	type agg struct {
		parent string
		total  float64 // ns
		calls  int
	}
	byName := map[string]*agg{}
	for _, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{parent: s.Parent}
			byName[s.Name] = a
		}
		a.total += float64(s.End - s.Start)
		a.calls++
	}
	// under(name) is the share of wall time a nanosecond spent directly
	// under span name blocks: one over the product of the widths from the
	// root down to and including name.
	var under func(name string, depth int) float64
	under = func(name string, depth int) float64 {
		a := byName[name]
		if a == nil || depth > 16 {
			return 1
		}
		w := t.width[name]
		if w < 1 {
			w = 1
		}
		f := 1.0
		if a.parent != "" {
			f = under(a.parent, depth+1)
		}
		return f / float64(w)
	}
	// Only spans under root belong to the table; a span recorded outside the
	// measured phase (a compaction after the drain) is a timing, not a row.
	var inRoot func(name string, depth int) bool
	inRoot = func(name string, depth int) bool {
		if name == root {
			return true
		}
		a := byName[name]
		if a == nil || a.parent == "" || depth > 16 {
			return false
		}
		return inRoot(a.parent, depth+1)
	}
	for name := range byName {
		if !inRoot(name, 0) {
			delete(byName, name)
		}
	}
	factor := func(parent string) float64 {
		if parent == "" {
			return 1
		}
		return under(parent, 0)
	}
	n := float64(jobs)
	tbl := layerTable{Workload: workload, Jobs: jobs}
	if r := byName[root]; r != nil && jobs > 0 {
		tbl.WallUS = r.total / n / 1e3
	}
	blocking := map[string]float64{}
	children := map[string]float64{}
	for name, a := range byName {
		blocking[name] = a.total * factor(a.parent)
		if a.parent != "" {
			children[a.parent] += blocking[name]
		}
	}
	for _, e := range t.est {
		children[e.parent] += e.perJobNS * n * factor(e.parent)
	}
	sumRows := 0.0
	for name, a := range byName {
		self := blocking[name] - children[name]
		if self < 0 {
			self = 0
		}
		row := layerRow{Name: name, Parent: a.parent, CallsPerJob: float64(a.calls) / n, SelfUS: self / n / 1e3}
		tbl.Rows = append(tbl.Rows, row)
		sumRows += row.SelfUS
	}
	for _, e := range t.est {
		row := layerRow{Name: e.name, Parent: e.parent, CallsPerJob: e.callsPerJob,
			SelfUS: e.perJobNS * factor(e.parent) / 1e3, Estimated: true}
		tbl.Rows = append(tbl.Rows, row)
		sumRows += row.SelfUS
	}
	tbl.Unattributed = tbl.WallUS - sumRows
	for i := range tbl.Rows {
		if tbl.WallUS > 0 {
			tbl.Rows[i].Share = tbl.Rows[i].SelfUS / tbl.WallUS
		}
	}
	sort.Slice(tbl.Rows, func(i, j int) bool {
		if tbl.Rows[i].SelfUS != tbl.Rows[j].SelfUS {
			return tbl.Rows[i].SelfUS > tbl.Rows[j].SelfUS
		}
		return tbl.Rows[i].Name < tbl.Rows[j].Name
	})
	return tbl
}

// unattributedShare is the remainder as a share of wall time per job.
func (tb layerTable) unattributedShare() float64 {
	if tb.WallUS == 0 {
		return 0
	}
	return math.Abs(tb.Unattributed) / tb.WallUS
}

func (tb layerTable) print(w io.Writer) {
	fmt.Fprintf(w, "layer table: %s, %d jobs, %.1f us wall per job (e = estimated from an isolated timing x count)\n",
		tb.Workload, tb.Jobs, tb.WallUS)
	fmt.Fprintf(w, "  %-28s %-22s %10s %12s %7s\n", "layer", "charged to", "calls/job", "self us/job", "share")
	for _, r := range tb.Rows {
		mark := " "
		if r.Estimated {
			mark = "e"
		}
		fmt.Fprintf(w, "%s %-28s %-22s %10.2f %12.2f %6.1f%%\n", mark, r.Name, r.Parent, r.CallsPerJob, r.SelfUS, 100*r.Share)
	}
	fmt.Fprintf(w, "  %-28s %-22s %10s %12.2f %6.1f%%\n", "unattributed", "", "", tb.Unattributed, 100*tb.Unattributed/math.Max(tb.WallUS, 1e-9))
}

// write dumps the raw spans and the folded table for offline reading.
func (t *tracer) write(dir string, tb layerTable) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tb.Workload+".json")
	t.mu.Lock()
	doc := struct {
		Table layerTable `json:"table"`
		Spans []span     `json:"spans"`
	}{tb, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
