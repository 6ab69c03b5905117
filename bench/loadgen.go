package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// loadResult is what one generator phase observed.
type loadResult struct {
	// lat holds one latency per successful request, by request index
	// (zero for failed requests). Open loop: from the instant the request
	// was due. Closed loop: from the instant it was sent.
	lat []time.Duration
	// lag is how late each open-loop request was sent: the generator's own
	// share of the latency. Empty for a closed loop.
	lag    []time.Duration
	failed int
	wall   time.Duration
	// firstErr is the first request error, for the report.
	firstErr error
}

// ok returns the latencies of the requests that succeeded.
func (r loadResult) ok() []time.Duration {
	out := make([]time.Duration, 0, len(r.lat))
	for _, d := range r.lat {
		if d > 0 {
			out = append(out, d)
		}
	}
	return out
}

// openLoop sends request i at due[i] (workload.PoissonArrivals makes the
// schedule) whatever became of the requests before it, from at most c
// connections. Latency runs from the due time, so a server stall is charged
// to every request that was due while it lasted — including those the
// generator could not send for want of a free connection. (Timing from the
// send instead would forgive exactly those: coordinated omission.)
func openLoop(due []time.Duration, c int, do func(i int) error) loadResult {
	return generate(len(due), c, due, do)
}

// closedLoop keeps c requests outstanding until n have been sent: each
// connection sends its next request when the previous one returns, so a
// slow server receives less load. Latency runs from the send.
func closedLoop(n, c int, do func(i int) error) loadResult {
	return generate(n, c, nil, do)
}

// generate runs n requests over c workers, each taking the next index when
// it is free. With a schedule a worker first waits for its request's due
// time and the clock of that request starts there.
func generate(n, c int, due []time.Duration, do func(i int) error) loadResult {
	res := loadResult{lat: make([]time.Duration, n)}
	if due != nil {
		res.lag = make([]time.Duration, n)
	}
	var next, failed atomic.Int64
	var errOnce sync.Once
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				from := time.Now()
				if due != nil {
					from = start.Add(due[i])
					if wait := time.Until(from); wait > 0 {
						time.Sleep(wait)
					}
					res.lag[i] = time.Since(from)
				}
				if err := do(i); err != nil {
					failed.Add(1)
					errOnce.Do(func() { res.firstErr = err })
					continue
				}
				res.lat[i] = time.Since(from)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.failed = int(failed.Load())
	return res
}
