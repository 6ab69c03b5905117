package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(nil)
	var order []int
	e.Schedule(3*time.Second, func(time.Duration) { order = append(order, 3) })
	e.Schedule(1*time.Second, func(time.Duration) { order = append(order, 1) })
	e.Schedule(2*time.Second, func(time.Duration) { order = append(order, 2) })
	end := e.Run()
	if end != 3*time.Second {
		t.Fatalf("Run ended at %v, want 3s", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(nil)
	var order []string
	at := time.Second
	for _, name := range []string{"a", "b", "c", "d"} {
		name := name
		e.Schedule(at, func(time.Duration) { order = append(order, name) })
	}
	e.Run()
	if got := len(order); got != 4 {
		t.Fatalf("ran %d events, want 4", got)
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if order[i] != want {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

func TestEngineCallbackMaySchedule(t *testing.T) {
	e := NewEngine(nil)
	fired := 0
	e.Schedule(time.Second, func(now time.Duration) {
		fired++
		e.Schedule(now+time.Second, func(time.Duration) { fired++ })
	})
	e.Run()
	if fired != 2 {
		t.Fatalf("chained event did not run, fired = %d", fired)
	}
	if got := e.Clock().Now(); got != 2*time.Second {
		t.Fatalf("final time %v, want 2s", got)
	}
}

func TestEngineSchedulePastClampsToNow(t *testing.T) {
	// A timestamp behind the clock (stale read from a concurrent
	// submitter) fires at the current instant instead of reordering
	// history.
	e := NewEngine(nil)
	e.Clock().AdvanceTo(5 * time.Second)
	var at time.Duration
	e.Schedule(time.Second, func(now time.Duration) { at = now })
	e.Run()
	if at != 5*time.Second {
		t.Fatalf("past-scheduled event fired at %v, want clamped to 5s", at)
	}
	if got := e.Clock().Now(); got != 5*time.Second {
		t.Fatalf("clock at %v after clamped event, want 5s", got)
	}
}

func TestEngineAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine(nil)
	e.Clock().AdvanceTo(10 * time.Second)
	var at time.Duration
	e.After(2*time.Second, func(now time.Duration) { at = now })
	e.Run()
	if at != 12*time.Second {
		t.Fatalf("After fired at %v, want 12s", at)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(nil)
	ran := []int{}
	e.Schedule(1*time.Second, func(time.Duration) { ran = append(ran, 1) })
	e.Schedule(5*time.Second, func(time.Duration) { ran = append(ran, 5) })
	e.RunUntil(3 * time.Second)
	if len(ran) != 1 || ran[0] != 1 {
		t.Fatalf("RunUntil(3s) ran %v, want [1]", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if len(ran) != 2 {
		t.Fatalf("final Run did not drain queue: %v", ran)
	}
}

func TestEngineStepOnEmptyQueue(t *testing.T) {
	e := NewEngine(nil)
	if e.Step() {
		t.Fatal("Step on empty queue reported an event")
	}
}

// Property: regardless of insertion order, events fire in nondecreasing
// time order, and same-instant events fire in insertion order.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		e := NewEngine(nil)
		n := 5 + rng.Intn(40)
		type fired struct {
			at  time.Duration
			seq int
		}
		var order []fired
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(10)) * time.Second
			seq := i
			e.Schedule(at, func(now time.Duration) {
				order = append(order, fired{at: now, seq: seq})
			})
		}
		e.Run()
		if len(order) != n {
			return false
		}
		for i := 1; i < len(order); i++ {
			if order[i].at < order[i-1].at {
				return false
			}
			if order[i].at == order[i-1].at && order[i].seq < order[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
