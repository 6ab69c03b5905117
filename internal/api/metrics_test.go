package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// submitOne pushes one quick racon job through the server and returns its
// job ID.
func submitOne(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	status, job := submitJob(t, ts, map[string]any{
		"tool":    "racon",
		"dataset": "alzheimers_nfl",
		"params":  map[string]string{"scale": "0.001"},
	})
	if status != http.StatusCreated {
		t.Fatalf("submit status %d: %v", status, job)
	}
	return int(job["id"].(float64))
}

func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	submitOne(t, ts)

	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	text := string(body)
	// The acceptance-criteria metric set, at minimum.
	for _, want := range []string{
		`gyan_jobs_state{state="ok"} 1`,
		"# TYPE gyan_submit_to_start_seconds histogram",
		"# TYPE gyan_submit_to_complete_seconds histogram",
		"# TYPE gyan_journal_fsync_batch_records histogram",
		"# TYPE gyan_job_attempts_total counter",
		"# TYPE gyan_quarantine_total counter",
		"gyan_smi_cache_hits_total",
		"gyan_smi_cache_misses_total",
		`gyan_jobs_submitted_total{tool="racon"} 1`,
		"gyan_submit_to_complete_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// GPU gauges from the monitor's samples (the submit armed it). The job
	// is over, and the sampler's closing sample averaged a second with no
	// work in it: the gauges rest at idle, not on the job's last partial
	// second.
	for _, want := range []string{
		"gyan_gpu_utilization_pct{device=\"0\"} 0\n",
		"gyan_gpu_utilization_pct{device=\"1\"} 0\n",
		"gyan_gpu_processes{device=\"0\"} 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing GPU gauge at rest %q:\n%s", want, text)
		}
	}
}

func TestTraceEndpoints(t *testing.T) {
	ts := testServer(t)
	id := submitOne(t, ts)

	for _, path := range []string{
		// Canonical home and the jobs-scoped alias.
		"/api/trace/", "/api/jobs/",
	} {
		url := path
		if path == "/api/trace/" {
			url = "/api/trace/" + itoa(id)
		} else {
			url = "/api/jobs/" + itoa(id) + "/trace"
		}
		resp, body := get(t, ts, url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
		}
		var tr struct {
			Job    int    `json:"job"`
			Tool   string `json:"tool"`
			Events []struct {
				Name string `json:"name"`
			} `json:"events"`
			Segments []struct {
				Name string `json:"name"`
			} `json:"segments"`
		}
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		if tr.Job != id || tr.Tool != "racon" {
			t.Errorf("%s: trace = %+v", url, tr)
		}
		var names []string
		for _, e := range tr.Events {
			names = append(names, e.Name)
		}
		joined := strings.Join(names, ",")
		for _, want := range []string{"submit", "map", "start", "complete"} {
			if !strings.Contains(joined, want) {
				t.Errorf("%s: events %s missing %q", url, joined, want)
			}
		}
		if len(tr.Segments) == 0 {
			t.Errorf("%s: no derived segments", url)
		}
	}

	if resp, _ := get(t, ts, "/api/trace/9999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/api/trace/bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad trace id: status %d, want 400", resp.StatusCode)
	}
}

// TestJobSubRouting pins the routing bugfix: unknown sub-resources 404 with
// an accurate message instead of mislabeling the job id as bad, and a truly
// bad id is still a 400.
func TestJobSubRouting(t *testing.T) {
	ts := testServer(t)
	id := submitOne(t, ts)

	cases := []struct {
		path       string
		wantStatus int
		wantErr    string
	}{
		{"/api/jobs/" + itoa(id), http.StatusOK, ""},
		{"/api/jobs/" + itoa(id) + "/", http.StatusNotFound, "no such job sub-resource"},
		{"/api/jobs/" + itoa(id) + "/bogus", http.StatusNotFound, "no such job sub-resource"},
		{"/api/jobs/notanid", http.StatusBadRequest, "bad job id"},
		{"/api/jobs/notanid/trace", http.StatusBadRequest, "bad job id"},
		{"/api/jobs/9999", http.StatusNotFound, "no job 9999"},
	}
	for _, tc := range cases {
		resp, body := get(t, ts, tc.path)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.path, resp.StatusCode, tc.wantStatus, body)
			continue
		}
		if tc.wantErr != "" && !strings.Contains(string(body), tc.wantErr) {
			t.Errorf("%s: body %s, want %q", tc.path, body, tc.wantErr)
		}
	}
}

// TestWriteJSONEncodeFailure pins the writeJSON bugfix: a value the encoder
// rejects must yield a 500 with a JSON error body, not a 200 with truncated
// output.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"bad": func() {}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, rec.Body.String())
	}
	if !strings.Contains(out["error"], "encode response") {
		t.Fatalf("error = %q", out["error"])
	}
}

func itoa(n int) string { return strconv.Itoa(n) }
