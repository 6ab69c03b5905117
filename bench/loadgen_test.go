package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stallServer serves one request at a time in about a millisecond, except
// request number stallAt, which holds the server for stall.
func stallServer(t *testing.T, stallAt int64, stall time.Duration) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if seen.Add(1) == stallAt {
			time.Sleep(stall)
		} else {
			time.Sleep(time.Millisecond)
		}
		fmt.Fprintln(w, "ok")
	}))
	t.Cleanup(srv.Close)
	return srv
}

func getter(client *http.Client, url string) func(int) error {
	return func(int) error {
		resp, err := client.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
}

func countAbove(lat []time.Duration, limit time.Duration) int {
	n := 0
	for _, d := range lat {
		if d > limit {
			n++
		}
	}
	return n
}

// A 200ms server stall falls on every request that was due while it lasted.
// The open loop must charge them all, including those it could not even
// send because both connections were stuck behind the stall; the closed
// loop, whose clients wait their turn, sees it once per connection.
func TestOpenLoopChargesTheStallClosedLoopDoesNot(t *testing.T) {
	const stall = 200 * time.Millisecond
	const n, conns = 60, 2
	client := keepAliveClient(conns)
	defer client.CloseIdleConnections()

	// Open loop: one request every 5ms, so about forty are due during the
	// stall; those due in its first half wait at least 100ms.
	srv := stallServer(t, 10, stall)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * 5 * time.Millisecond
	}
	open := openLoop(due, conns, getter(client, srv.URL))
	if open.failed != 0 {
		t.Fatalf("open loop: %d failed: %v", open.failed, open.firstErr)
	}
	if got := countAbove(open.lat, stall/2); got < 15 {
		t.Errorf("open loop charged %d requests more than %v; the stall covered about 20 due times", got, stall/2)
	}
	if worst := maxLagMS(open.lag); worst < 50 {
		t.Errorf("generator lateness %vms: both connections were stuck for most of 200ms and it was not reported", worst)
	}
	for i, d := range open.lat {
		if d < open.lag[i] {
			t.Errorf("request %d: latency %v below its own send lateness %v: not timed from the due time", i, d, open.lag[i])
		}
	}

	// Closed loop on the same server shape: only requests in flight during
	// the stall see it, at most one per connection.
	srv2 := stallServer(t, 10, stall)
	closed := closedLoop(n, conns, getter(client, srv2.URL))
	if closed.failed != 0 {
		t.Fatalf("closed loop: %d failed: %v", closed.failed, closed.firstErr)
	}
	if got := countAbove(closed.lat, stall/2); got < 1 || got > conns {
		t.Errorf("closed loop saw the stall on %d requests, want 1..%d", got, conns)
	}
	if len(closed.lag) != 0 {
		t.Errorf("closed loop reported send lateness")
	}
}

func TestOpenLoopNeverExceedsItsConnections(t *testing.T) {
	const conns = 3
	var inflight, peak atomic.Int64
	do := func(int) error {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
		return nil
	}
	due := make([]time.Duration, 50) // all due at once
	if res := openLoop(due, conns, do); res.failed != 0 {
		t.Fatal(res.firstErr)
	}
	if p := peak.Load(); p > conns {
		t.Errorf("%d requests in flight on %d connections", p, conns)
	}
}
