package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
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
