package sched

import (
	"testing"
	"time"

	"gyan/internal/smi"
)

// cycler is what the cycle benchmarks drive: a Scheduler or the oracle.
type cycler interface {
	Submit(Request, time.Duration) error
	Release(int, time.Duration)
	Cycle(time.Duration, smi.Usage) Decision
}

// backlog fills every device of u with a running job and queues depth more
// behind them, as a handler's requeued backlog does after a crash.
func backlog(b *testing.B, s cycler, u smi.Usage, depth int) (running []int) {
	for i := range u.AllGPUs {
		if err := s.Submit(Request{ID: i + 1, User: "bench", GPUs: 1}, 0); err != nil {
			b.Fatal(err)
		}
	}
	for _, st := range s.Cycle(0, u).Starts {
		running = append(running, st.ID)
	}
	for i := 0; i < depth; i++ {
		at := time.Duration(i + 1)
		if err := s.Submit(Request{ID: 100 + i, User: "bench", GPUs: 1, Submitted: at}, at); err != nil {
			b.Fatal(err)
		}
	}
	return running
}

// BenchmarkCycle times one scheduling cycle over a 2 000-deep queue on four
// devices, for the Scheduler and for the sort-every-cycle oracle:
//
//   - deep: every device is busy, so the cycle starts nothing;
//   - draining: one device is freed before each cycle and one job arrives,
//     so each cycle starts exactly one job and the depth holds.
func BenchmarkCycle(b *testing.B) {
	const depth = 2000
	impls := []struct {
		name string
		new  func() cycler
	}{
		{"scheduler", func() cycler { return New(Config{Backfill: true}) }},
		{"oracle", func() cycler { return newOracle(Config{Backfill: true}) }},
	}
	u := usageOf(4)
	for _, im := range impls {
		b.Run("deep/"+im.name, func(b *testing.B) {
			s := im.new()
			backlog(b, s, u, depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Cycle(time.Second, u)
			}
		})
		b.Run("draining/"+im.name, func(b *testing.B) {
			s := im.new()
			running := backlog(b, s, u, depth)
			now := time.Second
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += time.Millisecond
				s.Release(running[0], now)
				running = running[1:]
				if err := s.Submit(Request{ID: 100 + depth + i, User: "bench", GPUs: 1}, now); err != nil {
					b.Fatal(err)
				}
				dec := s.Cycle(now, u)
				if len(dec.Starts) != 1 {
					b.Fatalf("cycle %d started %d jobs, want 1", i, len(dec.Starts))
				}
				running = append(running, dec.Starts[0].ID)
			}
		})
	}
}
