package main

import (
	"math"
	"testing"
	"time"
)

// put records a span with chosen times, bypassing the clock.
func (t *tracer) put(name, parent string, start, end time.Duration) {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(start), End: int64(end)})
}

func row(tb layerTable, name string) layerRow {
	for _, r := range tb.Rows {
		if r.Name == name {
			return r
		}
	}
	return layerRow{}
}

func TestTableSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := time.Millisecond
	tr := newTracer()
	tr.put("root", "", 0, 100*ms)
	tr.put("phase", "root", 0, 80*ms)
	// Two lanes of work under phase: 4 calls of 30ms cover 120ms of lane
	// time, which blocks 60ms of wall.
	tr.setWidth("phase", 2)
	for i := 0; i < 4; i++ {
		tr.put("work", "phase", time.Duration(i)*10*ms, time.Duration(i)*10*ms+30*ms)
	}
	tr.put("leaf", "work", 0, 8*ms)
	tr.put("outside", "", 200*ms, 900*ms) // not under root: no row
	tr.estimate("est", "work", 1e6, 2)    // 1ms x 2 calls per job, inside work

	tb := tr.table("w", "root", 10)
	if math.Abs(tb.WallUS-10000) > 1e-6 {
		t.Fatalf("wall per job %v us, want 10000", tb.WallUS)
	}
	for name, want := range map[string]float64{
		"root":  2000, // 100 - 80, over 10 jobs
		"phase": 2000, // 80 - 120/2
		"leaf":  400,  // 8 / 2 lanes
		"est":   1000, // 2ms per job / 2 lanes
		"work":  4600, // 60 - 4 - 10 = 46ms of wall
	} {
		if got := row(tb, name).SelfUS; math.Abs(got-want) > 1e-6 {
			t.Errorf("%s self %v us per job, want %v", name, got, want)
		}
	}
	if row(tb, "outside").Name != "" {
		t.Error("a span outside the root made it into the table")
	}
	if math.Abs(tb.Unattributed) > 1e-6 {
		t.Errorf("rows leave %v us unattributed, want 0", tb.Unattributed)
	}
	if !row(tb, "est").Estimated || row(tb, "work").Estimated {
		t.Error("estimated rows are not marked")
	}
}

func TestTableShowsEstimatesThatOverrunTheirSpan(t *testing.T) {
	ms := time.Millisecond
	tr := newTracer()
	tr.put("root", "", 0, 10*ms)
	tr.put("work", "root", 0, 10*ms)
	tr.estimate("est", "work", 15e6, 1) // claims 15ms inside a 10ms span, per job
	tb := tr.table("w", "root", 1)
	if got := tb.unattributedShare(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("unattributed share %v, want 0.5 (the estimate overran by half the wall time)", got)
	}
}

func TestNilAndPausedTracersRecordNothing(t *testing.T) {
	var none *tracer
	none.start("a", "", 0).end()
	none.setWidth("a", 2)
	none.estimate("a", "", 1, 1)
	if d := none.durations("a", time.Microsecond); d != nil {
		t.Errorf("nil tracer returned %v", d)
	}
	tr := newTracer()
	tr.paused.Store(true)
	tr.start("a", "", 0).end()
	tr.paused.Store(false)
	tr.start("b", "", 0).end()
	if len(tr.spans) != 1 || tr.spans[0].Name != "b" {
		t.Errorf("spans %v, want only b", tr.spans)
	}
}
