package racon

import (
	"testing"
	"testing/quick"

	"gyan/internal/gpu"
)

func TestQVScale(t *testing.T) {
	cases := []struct {
		identity, want float64
	}{
		{1.0, 60},
		{0.999, 30},
		{0.99, 20},
		{0.9, 10},
		{0, 0},
	}
	for _, tc := range cases {
		got := QV(tc.identity)
		if got < tc.want-0.2 || got > tc.want+0.2 {
			t.Errorf("QV(%v) = %.2f, want ~%.0f", tc.identity, got, tc.want)
		}
	}
}

func TestQVBounds(t *testing.T) {
	f := func(raw int64) bool {
		id := float64(raw%2000) / 1000 // spans [-1, 2)
		qv := QV(id)
		return qv >= 0 && qv <= 60
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunProducesWindowStats(t *testing.T) {
	rs := testReadSet(t)
	res, err := Run(rs, DefaultParams(), gpu.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WindowStats) != res.Windows {
		t.Fatalf("window stats %d for %d windows", len(res.WindowStats), res.Windows)
	}
	improved := 0
	for i, w := range res.WindowStats {
		if w.Index != i {
			t.Fatalf("window %d has index %d", i, w.Index)
		}
		if w.PolishedIdentity < 0 || w.PolishedIdentity > 1 {
			t.Fatalf("window %d polished identity %v", i, w.PolishedIdentity)
		}
		if w.Improved() {
			improved++
		}
	}
	if improved < res.Windows/2 {
		t.Errorf("only %d/%d windows improved", improved, res.Windows)
	}

	sum := Summarize(res.WindowStats)
	if sum.Windows != res.Windows || sum.Improved != improved {
		t.Errorf("summary %+v disagrees with per-window scan (improved %d)", sum, improved)
	}
	if sum.MeanPolishedQV <= 10 {
		t.Errorf("mean polished QV = %.1f, expected well above draft quality", sum.MeanPolishedQV)
	}
	if sum.MinPolishedIdent > res.PolishedIdentity {
		t.Errorf("min window identity %.4f above the global %.4f", sum.MinPolishedIdent, res.PolishedIdentity)
	}
}

func TestWorstWindowsOrdering(t *testing.T) {
	stats := []WindowQuality{
		{Index: 0, PolishedIdentity: 0.99},
		{Index: 1, PolishedIdentity: 0.90},
		{Index: 2, PolishedIdentity: 0.95},
	}
	worst := WorstWindows(stats, 2)
	if len(worst) != 2 || worst[0].Index != 1 || worst[1].Index != 2 {
		t.Fatalf("worst = %+v", worst)
	}
	// n beyond length clamps.
	if got := WorstWindows(stats, 10); len(got) != 3 {
		t.Fatalf("clamped worst = %d entries", len(got))
	}
	// Input must not be reordered.
	if stats[0].Index != 0 || stats[1].Index != 1 {
		t.Fatal("WorstWindows mutated its input")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (QualitySummary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}
