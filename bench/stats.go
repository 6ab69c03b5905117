package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported: with fewer, the figure is one or two outliers and does
// not repeat from run to run.
const minBeyond = 10

// series is a set of timings with exact, sort-based quantiles. Every figure
// derived from it is printed beside n.
type series struct {
	sorted []float64
}

func newSeries(samples []float64) series {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return series{sorted: s}
}

func durationSeries(d []time.Duration, unit time.Duration) series {
	f := make([]float64, len(d))
	for i, v := range d {
		f[i] = float64(v) / float64(unit)
	}
	return newSeries(f)
}

func (s series) n() int { return len(s.sorted) }

// quantile returns the exact q-quantile by the nearest-rank rule (the
// smallest sample with at least q of the samples at or below it). It
// refuses a quantile the sample cannot support: above the median, at least
// minBeyond samples must lie beyond the returned one.
func (s series) quantile(q float64) (float64, error) {
	n := len(s.sorted)
	if n == 0 {
		return 0, fmt.Errorf("quantile %.3g of an empty series", q)
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %.3g out of (0,1)", q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; q > 0.5 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	return s.sorted[rank-1], nil
}

// median is the exact middle sample (the mean of the two middle samples of
// an even count); zero for an empty series.
func (s series) median() float64 {
	n := len(s.sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s.sorted[n/2]
	default:
		return (s.sorted[n/2-1] + s.sorted[n/2]) / 2
	}
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the acceptance rule for run-to-run
// spread is stated in.
func (s series) quartiles() (q1, q3 float64) {
	n := len(s.sorted)
	if n < 2 {
		v := s.median()
		return v, v
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based fractional rank
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		frac := pos - float64(lo) // outside [0,1] at the clamps: Python extrapolates too
		return s.sorted[lo-1] + frac*(s.sorted[lo]-s.sorted[lo-1])
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func (s series) spread() float64 {
	m := s.median()
	if m == 0 {
		return 0
	}
	q1, q3 := s.quartiles()
	return (q3 - q1) / math.Abs(m)
}

func medianOf(v []float64) float64 { return newSeries(v).median() }

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
