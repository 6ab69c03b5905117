package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestQuantileIsAnExactSample(t *testing.T) {
	s := newSeries([]float64{5, 1, 4, 2, 3})
	if got := s.median(); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	for _, tc := range []struct{ q, want float64 }{{0.2, 1}, {0.21, 2}, {0.5, 3}} {
		got, err := s.quantile(tc.q)
		if err != nil || got != tc.want {
			t.Errorf("quantile(%v) = %v, %v; want %v", tc.q, got, err, tc.want)
		}
	}
}

func TestQuantileRefusesWhatTheSampleCannotSupport(t *testing.T) {
	mk := func(n int) series {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		return newSeries(v)
	}
	// p90 needs ten samples beyond it: 100 samples leave exactly ten.
	if _, err := mk(99).quantile(0.90); err == nil {
		t.Error("p90 of 99 samples was not refused (9 beyond)")
	}
	if v, err := mk(100).quantile(0.90); err != nil || v != 89 {
		t.Errorf("p90 of 100 samples = %v, %v; want 89", v, err)
	}
	if _, err := mk(999).quantile(0.99); err == nil {
		t.Error("p99 of 999 samples was not refused")
	}
	if _, err := mk(1000).quantile(0.99); err != nil {
		t.Errorf("p99 of 1000 samples refused: %v", err)
	}
	if _, err := mk(0).quantile(0.5); err == nil {
		t.Error("quantile of an empty series was not refused")
	}
	for _, q := range []float64{0, 1, -1, 2} {
		if _, err := mk(100).quantile(q); err == nil {
			t.Errorf("quantile(%v) was not refused", q)
		}
	}
}

// Sub-100µs timings must come back as themselves. The histogram the old
// dispatch bench read its p50 from had a first bucket at 100µs and reported
// every fast cell as 50µs/95µs, above its own exact p99.
func TestFastTimingsKeepTheirResolutionAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := make([]time.Duration, 2000)
	for i := range d {
		d[i] = time.Duration(8000+rng.Intn(9000)) * time.Nanosecond // 8-17µs
	}
	s := durationSeries(d, time.Microsecond)
	p50 := s.median()
	p90, err90 := s.quantile(0.90)
	p99, err99 := s.quantile(0.99)
	if err90 != nil || err99 != nil {
		t.Fatal(err90, err99)
	}
	if !(p50 <= p90 && p90 <= p99) {
		t.Errorf("quantiles out of order: p50 %v p90 %v p99 %v", p50, p90, p99)
	}
	if p50 < 8 || p99 > 17 {
		t.Errorf("quantiles left the sample's range [8,17]µs: p50 %v p99 %v", p50, p99)
	}
	if p50 == 50 || p90 == 95 {
		t.Errorf("bucket artefact: p50 %v p90 %v", p50, p90)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// the run-to-run acceptance rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 12, 11, 15, 9}, 9.5, 13.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := newSeries(tc.v).quartiles()
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSliceRateIgnoresOneStall(t *testing.T) {
	// 100 completions 1ms apart, with one 500ms stall in the middle.
	var done []time.Duration
	at := time.Duration(0)
	for i := 0; i < 100; i++ {
		at += time.Millisecond
		if i == 50 {
			at += 500 * time.Millisecond
		}
		done = append(done, at)
	}
	if got := sliceRate(done); math.Abs(got-1000) > 1 {
		t.Errorf("sliceRate = %v, want 1000/s", got)
	}
}

func TestDeckDealsExactSharesInSeededOrder(t *testing.T) {
	a := deck(7, 1000, []float64{0.8, 0.1, 0.1})
	b := deck(7, 1000, []float64{0.8, 0.1, 0.1})
	c := deck(8, 1000, []float64{0.8, 0.1, 0.1})
	counts := [3]int{}
	same, differs := true, false
	for i := range a {
		counts[a[i]]++
		same = same && a[i] == b[i]
		differs = differs || a[i] != c[i]
	}
	if counts != [3]int{800, 100, 100} {
		t.Errorf("deck counts %v, want [800 100 100]", counts)
	}
	if !same || !differs {
		t.Errorf("same seed same order: %v; other seed other order: %v", same, differs)
	}
}

func TestDecksDealTheExactMixToEveryPhase(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		kinds := decks(seed, []float64{0.8, 0.1, 0.1}, 30, 120, 0)
		if len(kinds) != 150 {
			t.Fatalf("seed %d: %d cards, want 150", seed, len(kinds))
		}
		for _, phase := range [][]int{kinds[:30], kinds[30:]} {
			counts := [3]int{}
			for _, k := range phase {
				counts[k]++
			}
			n := len(phase)
			if counts != [3]int{n * 8 / 10, n / 10, n / 10} {
				t.Errorf("seed %d: a phase of %d holds %v", seed, n, counts)
			}
		}
	}
}

// A run on a machine twice as slow as the reference box reads half the rate
// and twice the times; quoted at reference speed it reads what the reference
// box would have.
func TestFoldQuotesFiguresAtReferenceSpeed(t *testing.T) {
	mk := func(slow float64) []*round {
		var rounds []*round
		for i := 0; i < 8; i++ {
			jitter := 1 + 0.01*float64(i) // rounds differ a little; the calm quartile is the second best
			lat := make([]time.Duration, 100)
			for k := range lat {
				lat[k] = time.Duration(float64(k+1) * slow * jitter * float64(time.Millisecond))
			}
			rounds = append(rounds, &round{
				setup: time.Duration(slow * jitter * float64(time.Second)),
				jobs:  100, wall: time.Duration(slow * jitter * float64(time.Second)),
				cpu: time.Duration(slow * jitter * float64(500*time.Millisecond)), lat: lat,
				ref:    []time.Duration{time.Duration(slow * jitter * float64(refNominal))},
				refMem: []time.Duration{time.Duration(3 * slow * jitter * float64(refMemNominal))},
			})
		}
		return rounds
	}
	for _, memoryBound := range []bool{false, true} {
		want, wantRaw, err := foldEndToEnd(mk(1), false)
		if err != nil {
			t.Fatal(err)
		}
		scale := 1.0
		if memoryBound {
			scale = 3 // the memory half alone ran three times slower than nominal in mk
		}
		got, raw, err := foldEndToEnd(mk(2), memoryBound)
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			g := got[name].Value
			if name == "jobs_per_s" {
				g /= scale
			} else {
				g *= scale
			}
			if math.Abs(g-w.Value) > 1e-6*w.Value {
				t.Errorf("memoryBound=%v %s = %v at reference speed, want %v", memoryBound, name, g, w.Value)
			}
		}
		if r, w := raw["raw.jobs_per_s"].Value, wantRaw["raw.jobs_per_s"].Value/2; math.Abs(r-w) > 1e-6*w {
			t.Errorf("raw.jobs_per_s = %v, want %v: half the reference box's", r, w)
		}
	}
	// The calm quartile of eight rounds is the second best, not the best.
	_, raw, _ := foldEndToEnd(mk(1), false)
	if want := 100 / 1.01; math.Abs(raw["raw.jobs_per_s"].Value-want) > 1e-6 {
		t.Errorf("raw.jobs_per_s = %v, want the second-best round's %v", raw["raw.jobs_per_s"].Value, want)
	}
}
