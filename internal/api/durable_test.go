package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gyan/internal/galaxy"
	"gyan/internal/journal"
)

// asyncDurableServer is gyan-server -journal -async-durable in miniature,
// with the journal's flushers parked: records stage, nothing reaches disk
// until the returned gate is closed.
func asyncDurableServer(t *testing.T) (*httptest.Server, *galaxy.Galaxy, *journal.Journal, chan struct{}) {
	t.Helper()
	j, err := journal.Open(t.TempDir(), journal.Options{DurableSubmits: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	g := galaxy.New(nil, galaxy.WithJournal(j, "h1"), galaxy.WithAsyncDurable())
	if err := g.RegisterDefaultTools(); err != nil {
		t.Fatal(err)
	}
	s := NewServer(g)
	s.RegisterDataset("alzheimers_nfl", testReads(t))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	hold := make(chan struct{})
	j.HoldFlush(hold)
	return ts, g, j, hold
}

// postUntilRunDone fires the request and returns once the engine has run its
// jobs to completion — the handler is past g.Run(), so the only thing that
// may still keep it from answering is the durability wait.
func postUntilRunDone(t *testing.T, ts *httptest.Server, g *galaxy.Galaxy, path string, body any, jobs int) <-chan int {
	t.Helper()
	b, _ := json.Marshal(body)
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			status <- -1
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		done := 0
		for _, j := range g.Jobs() {
			if j.Done() {
				done++
			}
		}
		if done == jobs {
			return status
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d of %d jobs finished", path, done, jobs)
		}
	}
}

// TestAsyncDurableAckWaitsForWatermark is the acked-implies-durable
// regression for -async-durable: the submitting endpoints used to answer 201
// straight after the run, with the submit record's ticket still above the
// watermark. No response may arrive while the flushers are held; releasing
// them releases the 201, and a crash instead turns it into a 5xx.
func TestAsyncDurableAckWaitsForWatermark(t *testing.T) {
	job := map[string]any{"tool": "racon", "dataset": "alzheimers_nfl", "params": fastRacon}
	chain := map[string]any{"name": "two-round", "steps": []map[string]any{
		job, {"tool": "racon", "chain_backbone": true, "params": fastRacon},
	}}
	for _, tc := range []struct {
		name, path string
		body       any
		jobs       int
		crash      bool
	}{
		{"job", "/api/jobs", job, 1, false},
		{"workflow", "/api/workflows", chain, 2, false},
		{"job, crash while held", "/api/jobs", job, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, g, j, hold := asyncDurableServer(t)
			status := postUntilRunDone(t, ts, g, tc.path, tc.body, tc.jobs)
			select {
			case code := <-status:
				wm := j.Stats().Watermark
				t.Fatalf("answered %d with nothing flushed (watermark %d, job ticket %d)",
					code, wm, g.Jobs()[0].DurableTicket)
			case <-time.After(50 * time.Millisecond):
			}
			if tc.crash {
				if err := j.Crash(); err != nil {
					t.Fatal(err)
				}
				if code := <-status; code < 500 {
					t.Fatalf("answered %d for a submit the crash dropped, want 5xx", code)
				}
				return
			}
			close(hold)
			if code := <-status; code != http.StatusCreated {
				t.Fatalf("status %d after the flush, want 201", code)
			}
			wm := j.Stats().Watermark
			for _, job := range g.Jobs() {
				if job.DurableTicket == 0 || job.DurableTicket > wm {
					t.Errorf("job %d acknowledged with ticket %d above watermark %d", job.ID, job.DurableTicket, wm)
				}
			}
		})
	}
}
