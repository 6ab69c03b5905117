package workload

import (
	"fmt"
	"math"
	"time"

	"gyan/internal/sim"
)

// Arrival processes. The paper's evaluation submits jobs by hand; the
// load/queueing ablations need reproducible arrival streams instead. All
// generators return offsets from time zero, sorted ascending.

// PoissonArrivals returns n arrival offsets with exponentially distributed
// gaps at the given mean rate (jobs per second).
func PoissonArrivals(seed uint64, ratePerSec float64, n int) ([]time.Duration, error) {
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("workload: arrival rate %v", ratePerSec)
	}
	if n < 0 {
		return nil, fmt.Errorf("workload: %d arrivals", n)
	}
	rng := sim.NewRNG(seed)
	out := make([]time.Duration, n)
	var t float64
	for i := 0; i < n; i++ {
		// Inverse-CDF sampling of Exp(rate); 1-U avoids log(0).
		gap := -math.Log(1-rng.Float64()) / ratePerSec
		t += gap
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out, nil
}
