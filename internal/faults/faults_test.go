package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gyan/internal/sim"
)

func TestMatchZeroValuesMatchAnything(t *testing.T) {
	site := Site{Op: OpExec, Job: 7, Tool: "racon", Attempt: 2, Devices: []int{1}}
	if !(Match{}).matches(site) {
		t.Error("zero Match should match any site")
	}
	cases := []struct {
		m    Match
		want bool
	}{
		{Match{Op: OpExec}, true},
		{Match{Op: OpProbe}, false},
		{Match{Job: 7}, true},
		{Match{Job: 8}, false},
		{Match{Tool: "racon"}, true},
		{Match{Tool: "bonito"}, false},
		{Match{Attempt: 2}, true},
		{Match{Attempt: 1}, false},
		{Match{Devices: []int{1, 3}}, true},
		{Match{Devices: []int{0}}, false},
		{Match{Op: OpExec, Job: 7, Tool: "racon", Attempt: 2, Devices: []int{1}}, true},
	}
	for i, c := range cases {
		if got := c.m.matches(site); got != c.want {
			t.Errorf("case %d: matches = %v, want %v", i, got, c.want)
		}
	}
}

func TestPlanCountBudget(t *testing.T) {
	p := NewPlan(1, Rule{
		Match: Match{Op: OpExec},
		Fault: Fault{Class: Transient, Msg: "boom"},
		Count: 2,
	})
	site := Site{Op: OpExec, Job: 1, Attempt: 1}
	for i := 0; i < 2; i++ {
		if _, ok := p.Check(time.Second, site); !ok {
			t.Fatalf("fire %d: expected fault", i)
		}
	}
	if _, ok := p.Check(time.Second, site); ok {
		t.Error("count budget exhausted but fault still fired")
	}
	if p.Fired() != 2 {
		t.Errorf("Fired = %d, want 2", p.Fired())
	}
}

func TestPlanProbabilisticDeterminism(t *testing.T) {
	fire := func(seed uint64) []int {
		p := NewPlan(seed, Rule{
			Match: Match{Op: OpExec},
			Fault: Fault{Class: Transient, Msg: "flaky"},
			Prob:  0.5,
		})
		var hits []int
		for i := 0; i < 64; i++ {
			if _, ok := p.Check(0, Site{Op: OpExec, Job: i + 1, Attempt: 1}); ok {
				hits = append(hits, i)
			}
		}
		return hits
	}
	a, b := fire(42), fire(42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed fired different sites: %v vs %v", a, b)
	}
	if len(a) == 0 || len(a) == 64 {
		t.Fatalf("prob 0.5 fired %d of 64 sites", len(a))
	}
	if c := fire(43); fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds fired identical sites (suspicious)")
	}
}

func TestPlanFirstMatchingRuleWins(t *testing.T) {
	p := NewPlan(1,
		Rule{Match: Match{Op: OpExec, Job: 2}, Fault: Fault{Class: Permanent, Msg: "specific"}},
		Rule{Match: Match{Op: OpExec}, Fault: Fault{Class: Transient, Msg: "general"}},
	)
	f, ok := p.Check(0, Site{Op: OpExec, Job: 2, Attempt: 1})
	if !ok || f.Msg != "specific" {
		t.Fatalf("got %+v ok=%v, want the specific rule", f, ok)
	}
	f, ok = p.Check(0, Site{Op: OpExec, Job: 3, Attempt: 1})
	if !ok || f.Msg != "general" {
		t.Fatalf("got %+v ok=%v, want the general rule", f, ok)
	}
}

func TestNilPlanNeverFires(t *testing.T) {
	var p *Plan
	if _, ok := p.Check(0, Site{Op: OpExec}); ok {
		t.Error("nil plan fired")
	}
	if p.Events() != nil || p.Fired() != 0 {
		t.Error("nil plan has events")
	}
}

func TestErrorClassification(t *testing.T) {
	e := NewError(Site{Op: OpExec, Job: 1}, Fault{Class: Transient, Msg: "crash"})
	if c, ok := ClassOf(e); !ok || c != Transient {
		t.Errorf("ClassOf(direct) = %v, %v", c, ok)
	}
	wrapped := fmt.Errorf("dispatch: %w", e)
	if c, ok := ClassOf(wrapped); !ok || c != Transient {
		t.Errorf("ClassOf(wrapped) = %v, %v", c, ok)
	}
	if _, ok := ClassOf(errors.New("plain")); ok {
		t.Error("plain error claimed a class")
	}
	if c, ok := ClassOf(NewError(Site{Op: OpLaunch}, Fault{Class: Permanent, Msg: "bad image"})); !ok || c != Permanent {
		t.Errorf("ClassOf(permanent) = %v, %v", c, ok)
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	b := Backoff{MaxAttempts: 5, Base: time.Second, Max: 4 * time.Second}
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 4 * time.Second}
	for i, w := range want {
		if got := b.Delay(i+1, nil); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffJitterDeterministicAndMeanPreserving(t *testing.T) {
	b := Backoff{Base: time.Second, Jitter: 0.5}
	d1 := b.Delay(1, sim.NewRNG(9))
	d2 := b.Delay(1, sim.NewRNG(9))
	if d1 != d2 {
		t.Errorf("same rng seed gave %v then %v", d1, d2)
	}
	lo, hi := 750*time.Millisecond, 1250*time.Millisecond
	rng := sim.NewRNG(11)
	for i := 0; i < 100; i++ {
		d := b.Delay(1, rng)
		if d < lo || d > hi {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, lo, hi)
		}
	}
}

func TestBackoffZeroValueSingleAttempt(t *testing.T) {
	var b Backoff
	if b.Attempts() != 1 {
		t.Errorf("zero Backoff allows %d attempts, want 1", b.Attempts())
	}
}

func TestQuarantineThresholdAndCooldown(t *testing.T) {
	q := NewQuarantine(2, 10*time.Second)
	if q.RecordFault(1, time.Second) {
		t.Error("first fault quarantined below threshold")
	}
	if !q.RecordFault(1, 2*time.Second) {
		t.Error("second fault should quarantine")
	}
	if !q.IsQuarantined(1, 5*time.Second) {
		t.Error("device 1 should be quarantined")
	}
	if q.IsQuarantined(0, 5*time.Second) {
		t.Error("device 0 was never at fault")
	}
	if got := q.Quarantined(5 * time.Second); len(got) != 1 || got[0] != 1 {
		t.Errorf("Quarantined = %v", got)
	}
	// Cooldown elapses at 12s.
	if q.IsQuarantined(1, 13*time.Second) {
		t.Error("cooldown should have released device 1")
	}
	// A repeat offender re-enters after a single further fault.
	if !q.RecordFault(1, 14*time.Second) {
		t.Error("post-cooldown fault should re-quarantine immediately")
	}
	spans := q.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %v, want 2 entries", spans)
	}
	if spans[0].Open() {
		t.Error("cooldown span should be closed")
	}
}

func TestQuarantinePermanentWithoutCooldown(t *testing.T) {
	q := NewQuarantine(1, 0)
	q.RecordFault(0, time.Second)
	if !q.IsQuarantined(0, 1000*time.Hour) {
		t.Error("no-cooldown quarantine should be permanent")
	}
	spans := q.Spans()
	if len(spans) != 1 || !spans[0].Open() {
		t.Errorf("spans = %v, want one open span", spans)
	}
	// Further faults while quarantined do not open new spans.
	q.RecordFault(0, 2*time.Second)
	if len(q.Spans()) != 1 {
		t.Errorf("re-fault while quarantined added a span: %v", q.Spans())
	}
}

func TestNilQuarantineIsInert(t *testing.T) {
	var q *Quarantine
	if q.RecordFault(0, 0) || q.IsQuarantined(0, 0) {
		t.Error("nil quarantine acted")
	}
	if q.Quarantined(0) != nil || q.Spans() != nil {
		t.Error("nil quarantine returned state")
	}
}
