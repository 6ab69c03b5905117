package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gyan/internal/cluster"
	"gyan/internal/galaxy"
	"gyan/internal/sched"
	"gyan/internal/workload"
)

func testClusterServer(t *testing.T, n int) (*httptest.Server, *cluster.Sim) {
	t.Helper()
	c, err := cluster.NewSim(cluster.SimConfig{
		Handlers: n,
		Tick:     250 * time.Millisecond,
		Sched:    sched.Config{Backfill: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rs, err := workload.GenerateLongReads(workload.LongReadConfig{
		Name: "api", Seed: 5, RefLen: 240, ReadLen: 80, Coverage: 2,
		SubRate: 0.02, InsRate: 0.03, DelRate: 0.03, BackboneErrorRate: 0.04,
		NominalBytes: 17 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterDataset("reads", rs)
	ts := httptest.NewServer(NewClusterServer(c).Handler())
	t.Cleanup(ts.Close)
	return ts, c
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, buf.Bytes()
}

func TestClusterStatusEndpoint(t *testing.T) {
	ts, _ := testClusterServer(t, 3)
	resp, body := get(t, ts, "/api/cluster")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var st cluster.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Handlers) != 3 || st.Stripes != cluster.DefaultStripes {
		t.Fatalf("status body: %s", body)
	}
	if len(st.Partition) != cluster.DefaultStripes {
		t.Fatalf("partition table has %d entries", len(st.Partition))
	}
	for _, h := range st.Handlers {
		if !h.Alive || h.Stripes == 0 || h.GPUs == 0 {
			t.Fatalf("bad handler row: %+v", h)
		}
	}
}

func TestClusterSubmitRoutesAndCompletes(t *testing.T) {
	ts, c := testClusterServer(t, 3)
	before := c.Now()
	resp, body := postJSON(t, ts, "/api/cluster/jobs", map[string]any{
		"tool": "racon", "params": map[string]string{"scale": "0.002"}, "dataset": "reads",
		"user": "api",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if now := c.Now(); now != before {
		t.Fatalf("POST moved the cluster clock from %v to %v; only Tick may", before, now)
	}
	type routed struct {
		Key     uint64 `json:"key"`
		Handler string `json:"handler"`
		State   string `json:"state"`
		Params  map[string]string
	}
	var job routed
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.State != "queued" || job.Handler == "" {
		t.Fatalf("job body: %s", body)
	}
	if job.Params[cluster.KeyParam] == "" {
		t.Fatalf("routed job lost its cluster key: %s", body)
	}

	// Once the cluster runs, the job is retrievable by key, finished, and
	// appears in the listing.
	c.Run(24 * time.Hour)
	resp, body = get(t, ts, "/api/cluster/jobs/0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.State != "ok" || job.Handler == "" {
		t.Fatalf("job after the run: %s", body)
	}
	resp, body = get(t, ts, "/api/cluster/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	var list []json.RawMessage
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("job list has %d entries: %s", len(list), body)
	}

	// Unknown dataset and bad key are client errors.
	if resp, _ := postJSON(t, ts, "/api/cluster/jobs", map[string]any{
		"tool": "racon", "dataset": "nope",
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown dataset: status %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/api/cluster/jobs/999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing key: status %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/api/cluster/jobs/banana"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad key: status %d", resp.StatusCode)
	}
}

func TestClusterSurveyEndpoint(t *testing.T) {
	ts, c := testClusterServer(t, 2)
	if err := c.KillHandler("h1", nil); err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, ts, "/api/cluster/survey")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sv []struct {
		Handler string `json:"handler"`
		Alive   bool   `json:"alive"`
	}
	if err := json.Unmarshal(body, &sv); err != nil {
		t.Fatal(err)
	}
	if len(sv) != 2 || !sv[0].Alive || sv[1].Alive {
		t.Fatalf("survey body: %s", body)
	}
}

func TestClusterMetricsEndpoint(t *testing.T) {
	ts, _ := testClusterServer(t, 2)
	if resp, _ := postJSON(t, ts, "/api/cluster/jobs", map[string]any{
		"tool": "racon", "params": map[string]string{"scale": "0.001"}, "dataset": "reads",
	}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"gyan_cluster_jobs_routed_total{",
		"gyan_cluster_handler_up{",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestClusterTransportEndpoint(t *testing.T) {
	ts, _ := testClusterServer(t, 2)
	resp, body := get(t, ts, "/api/cluster/transport")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var tr struct {
		Bus     map[string]uint64 `json:"bus"`
		Members []struct {
			ID    string `json:"id"`
			Alive bool   `json:"alive"`
		} `json:"members"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Members) != 2 || !tr.Members[0].Alive || !tr.Members[1].Alive {
		t.Fatalf("transport body: %s", body)
	}
	if _, ok := tr.Bus["sent"]; !ok {
		t.Fatalf("transport body missing bus stats: %s", body)
	}
}

// TestClusterMethodNotAllowed sweeps the full cluster route surface with
// every unsupported verb: each must answer a uniform 405 with an Allow
// header naming the verbs that would have worked — including the key-bearing
// jobs sub-resource, where the method gate must fire before key parsing.
func TestClusterMethodNotAllowed(t *testing.T) {
	ts, _ := testClusterServer(t, 2)
	routes := []struct {
		path    string
		allowed []string
	}{
		{"/api/version", []string{http.MethodGet}},
		{"/api/cluster", []string{http.MethodGet}},
		{"/api/cluster/survey", []string{http.MethodGet}},
		{"/api/cluster/transport", []string{http.MethodGet}},
		{"/api/cluster/jobs", []string{http.MethodGet, http.MethodPost}},
		{"/api/cluster/jobs/0", []string{http.MethodGet, http.MethodDelete}},
		{"/api/cluster/jobs/banana", []string{http.MethodGet, http.MethodDelete}},
		{"/metrics", []string{http.MethodGet}},
	}
	verbs := []string{
		http.MethodGet, http.MethodPost, http.MethodPut,
		http.MethodDelete, http.MethodPatch,
	}
	for _, rt := range routes {
		supported := map[string]bool{}
		for _, v := range rt.allowed {
			supported[v] = true
		}
		for _, verb := range verbs {
			if supported[verb] {
				continue
			}
			req, err := http.NewRequest(verb, ts.URL+rt.path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s: status %d, want 405: %s", verb, rt.path, resp.StatusCode, buf.Bytes())
			}
			allow := resp.Header.Get("Allow")
			for _, want := range rt.allowed {
				if !strings.Contains(allow, want) {
					t.Fatalf("%s %s: Allow header %q missing %s", verb, rt.path, allow, want)
				}
			}
			var errBody struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(buf.Bytes(), &errBody); err != nil || errBody.Error == "" {
				t.Fatalf("%s %s: 405 body is not the error envelope: %s", verb, rt.path, buf.Bytes())
			}
		}
	}
}

func TestClusterKillEndpoint(t *testing.T) {
	ts, c := testClusterServer(t, 2)
	// Nothing steps the cluster, so the routed job is still live when the
	// DELETE lands.
	if resp, body := postJSON(t, ts, "/api/cluster/jobs", map[string]any{
		"tool": "racon", "params": map[string]string{"scale": "0.01"}, "dataset": "reads",
	}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/cluster/jobs/0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("kill status %d: %s", resp.StatusCode, buf.Bytes())
	}
	var job struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(buf.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	if job.State != "error" {
		t.Fatalf("kill reply: state %q, want error: %s", job.State, buf.Bytes())
	}
	// The kill must stop the job, not just relabel it: once the cluster
	// runs, the job is still in error rather than finished ok.
	c.Run(24 * time.Hour)
	resp, body := get(t, ts, "/api/cluster/jobs/0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.State != "error" {
		t.Fatalf("killed job after the run: state %q, want error: %s", job.State, body)
	}
}

// killStub is a clusterView whose KillJob answers err and whose Lookup finds
// job under key 7; the DELETE handler calls nothing else.
type killStub struct {
	clusterView
	err error
	job *galaxy.Job
}

func (s killStub) KillJob(uint64) error { return s.err }

func (s killStub) Lookup(key uint64) (cluster.JobRef, *galaxy.Job, bool) {
	return cluster.JobRef{Key: key, Handler: "h1"}, s.job, key == 7
}

// TestClusterKillMapsRefusals checks what DELETE /api/cluster/jobs/{key}
// answers for each outcome of a kill: 404 for no job, 409 with Retry-After
// while a steal is in flight, 409 naming the owner for a stolen job, and 200
// with the job's state after a kill that landed.
func TestClusterKillMapsRefusals(t *testing.T) {
	for _, tc := range []struct {
		name       string
		err        error
		status     int
		retryAfter string
		body       string
	}{
		{"no job", fmt.Errorf("%w: key 7", galaxy.ErrNoJob), http.StatusNotFound, "", "no live job with key 7"},
		{"prepared", fmt.Errorf("%w: job 3 is being handed to handler %q", galaxy.ErrStealInFlight, "h2"),
			http.StatusConflict, "1", "in flight"},
		{"stolen", fmt.Errorf("%w: handler %q owns job 3 now", galaxy.ErrStolen, "h2"),
			http.StatusConflict, "", `handler \"h2\" owns job 3`},
		{"killed", nil, http.StatusOK, "", `"state":"error"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := killStub{err: tc.err, job: &galaxy.Job{ID: 3, ToolID: "racon", State: galaxy.StateError}}
			ts := httptest.NewServer(NewClusterServer(stub).Handler())
			defer ts.Close()
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/cluster/jobs/7", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, buf.Bytes())
			}
			if got := resp.Header.Get("Retry-After"); got != tc.retryAfter {
				t.Errorf("Retry-After %q, want %q", got, tc.retryAfter)
			}
			if !strings.Contains(buf.String(), tc.body) {
				t.Errorf("body %s does not contain %s", buf.Bytes(), tc.body)
			}
		})
	}
}
