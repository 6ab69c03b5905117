package faults

import (
	"testing"
	"time"

	"gyan/internal/sim"
)

// Property test for Backoff.Delay: across randomized policies and retry
// counts (including absurdly large ones), the unjittered delay follows the
// capped geometric schedule exactly, and the jittered delay stays inside
// the mean-preserving band [d*(1-J/2), d*(1+J/2)] around it.
func TestBackoffDelayProperties(t *testing.T) {
	cfgRNG := sim.NewRNG(0xb0ff)
	for trial := 0; trial < 200; trial++ {
		b := Backoff{
			Base:   time.Duration(1 + cfgRNG.Intn(int(2*time.Second))),
			Max:    time.Duration(1 + cfgRNG.Intn(int(time.Minute))),
			Jitter: cfgRNG.Float64(),
		}
		effMax := b.Max
		jitterRNG := sim.NewRNG(uint64(trial) + 1)

		prev := time.Duration(0)
		for _, retry := range []int{1, 2, 3, 5, 8, 13, 50, 1000, 1 << 20} {
			// Reference value from the documented schedule, computed the
			// same capped way (the early break on >= max is what keeps
			// huge retry counts from overflowing the float product).
			want := float64(b.Base)
			for i := 1; i < retry; i++ {
				want *= 2
				if want >= float64(effMax) {
					want = float64(effMax)
					break
				}
			}
			if want > float64(effMax) {
				want = float64(effMax)
			}

			plain := b.Delay(retry, nil)
			if plain != time.Duration(want) && want >= 1 {
				t.Fatalf("trial %d: Delay(%d) unjittered = %v, want %v (base=%v max=%v)",
					trial, retry, plain, time.Duration(want), b.Base, effMax)
			}
			if plain > effMax {
				t.Fatalf("trial %d: Delay(%d) = %v exceeds cap %v", trial, retry, plain, effMax)
			}
			if plain < 1 {
				t.Fatalf("trial %d: Delay(%d) = %v below 1ns floor", trial, retry, plain)
			}
			if plain < prev {
				t.Fatalf("trial %d: unjittered delay not monotone: Delay(%d)=%v < previous %v",
					trial, retry, plain, prev)
			}
			prev = plain

			jittered := b.Delay(retry, jitterRNG)
			lo, hi := want*(1-b.Jitter/2), want*(1+b.Jitter/2)
			if lo < 1 {
				lo = 1
			}
			// One ulp of slack for the float round-trip through Duration.
			if float64(jittered) < lo-1 || float64(jittered) > hi+1 {
				t.Fatalf("trial %d: Delay(%d) jittered = %v outside [%v, %v] (jitter=%v)",
					trial, retry, jittered, time.Duration(lo), time.Duration(hi), b.Jitter)
			}
		}

		// At large retry counts the delay must have saturated at the cap.
		if got := b.Delay(1<<30, nil); got != effMax {
			t.Fatalf("trial %d: Delay(1<<30) = %v, want saturated cap %v", trial, got, effMax)
		}
	}
}

// The zero-value policy still produces sane, capped, positive delays at
// large retry counts (defaults: 500ms base, 30s cap, factor 2).
func TestBackoffDelayZeroValueLargeRetries(t *testing.T) {
	var b Backoff
	if got := b.Delay(1, nil); got != 500*time.Millisecond {
		t.Fatalf("Delay(1) = %v, want 500ms default base", got)
	}
	for _, retry := range []int{7, 100, 1 << 20, 1 << 30} {
		if got := b.Delay(retry, nil); got != 30*time.Second {
			t.Fatalf("Delay(%d) = %v, want saturated 30s default cap", retry, got)
		}
	}
}
