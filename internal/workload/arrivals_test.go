package workload

import (
	"testing"
	"time"
)

func TestPoissonArrivalsProperties(t *testing.T) {
	arr, err := PoissonArrivals(5, 2.0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != 2000 {
		t.Fatalf("got %d arrivals", len(arr))
	}
	// Sorted and strictly positive.
	prev := time.Duration(0)
	for i, a := range arr {
		if a <= prev {
			t.Fatalf("arrival %d not increasing: %v after %v", i, a, prev)
		}
		prev = a
	}
	// Mean gap ~ 1/rate = 0.5 s.
	mean := arr[len(arr)-1].Seconds() / float64(len(arr))
	if mean < 0.45 || mean > 0.55 {
		t.Errorf("mean gap = %.3f s, want ~0.5", mean)
	}
	// Deterministic per seed.
	again, _ := PoissonArrivals(5, 2.0, 2000)
	for i := range arr {
		if arr[i] != again[i] {
			t.Fatal("same-seed arrivals differ")
		}
	}
}

func TestArrivalValidation(t *testing.T) {
	if _, err := PoissonArrivals(1, 0, 5); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := PoissonArrivals(1, 1, -1); err == nil {
		t.Error("negative count accepted")
	}
}
