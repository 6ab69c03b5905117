package api

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"gyan/internal/cluster"
)

// TestLatchedJournalRefusesAck is the acked-implies-durable regression: a
// journal append error is latched, not returned, so a submit after the
// journal died still runs — and the submitting endpoints used to answer 201
// for work that never reached disk. Every one of them must answer 503 once
// the latch is set.
func TestLatchedJournalRefusesAck(t *testing.T) {
	ts, j := journaledServer(t, t.TempDir())
	racon := map[string]any{"tool": "racon", "dataset": "reads", "params": map[string]string{"scale": "0.001"}}
	// Job 1 dead-letters (journaledServer's fault plan), so the resubmit
	// endpoint has something to revive below.
	if resp, body := postJSON(t, ts, "/api/jobs", racon); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit before the crash: status %d: %s", resp.StatusCode, body)
	}
	before := jobCount(t, ts)
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/api/jobs", racon},
		{"/api/workflows", map[string]any{"name": "after-crash", "steps": []any{racon}}},
		{"/api/jobs/1/resubmit", nil},
	} {
		if resp, body := postJSON(t, ts, tc.path, tc.body); resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("POST %s with the journal crashed: status %d, want 503: %s", tc.path, resp.StatusCode, body)
		}
	}
	// Only the first submit after the crash ran: its own append failed and
	// latched the error. Every later one was refused before it ran, so a
	// client retrying a 503 does not run the work again off the record.
	if n := jobCount(t, ts); n != before+1 {
		t.Fatalf("%d jobs after the refused submits, want %d: one more than before the crash", n, before+1)
	}
}

func jobCount(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	resp, body := get(t, ts, "/api/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d: %s", resp.StatusCode, body)
	}
	var jobs []json.RawMessage
	if err := json.Unmarshal(body, &jobs); err != nil {
		t.Fatal(err)
	}
	return len(jobs)
}

// failingCluster is a cluster whose member's journal fails under a submit
// once failing is set: the submit still runs, as a member's does when its
// own append fails, and the latch reads set from then on.
type failingCluster struct {
	*cluster.Sim
	failing atomic.Bool
	latched error
}

func (c *failingCluster) Submit(tool string, params map[string]string, dataset string, opts cluster.SubmitOptions) (cluster.JobRef, error) {
	ref, err := c.Sim.Submit(tool, params, dataset, opts)
	if c.failing.Load() {
		c.latched = errors.New("journal: fsync: input/output error")
	}
	return ref, err
}

func (c *failingCluster) JournalError() error { return c.latched }

// TestClusterLatchedJournalRefusesAck is TestLatchedJournalRefusesAck for a
// cluster member: POST /api/cluster/jobs used to answer 202 after the
// member's journal had failed. The submit whose own append failed answers
// 503, and every later one is refused before it runs, creating no key.
func TestClusterLatchedJournalRefusesAck(t *testing.T) {
	_, sim := testClusterServer(t, 1)
	c := &failingCluster{Sim: sim}
	ts := httptest.NewServer(NewClusterServer(c).Handler())
	t.Cleanup(ts.Close)
	racon := map[string]any{"tool": "racon", "params": map[string]string{"scale": "0.002"}, "dataset": "reads"}
	if resp, body := postJSON(t, ts, "/api/cluster/jobs", racon); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with a healthy journal: status %d: %s", resp.StatusCode, body)
	}
	c.failing.Store(true)
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts, "/api/cluster/jobs", racon); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("submit %d with the journal failed: status %d, want 503: %s", i, resp.StatusCode, body)
		}
	}
	if keys := sim.Keys(); len(keys) != 2 {
		t.Fatalf("keys %v after the refused submits, want 2: the one before and the one whose append failed", keys)
	}
}
