package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"gyan/internal/galaxy"
	"gyan/internal/workload"
)

func testServer(t *testing.T, opts ...galaxy.Option) *httptest.Server {
	t.Helper()
	g := galaxy.New(nil, opts...)
	if err := g.RegisterDefaultTools(); err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterGenomicsTools(); err != nil { // as gyan-server does
		t.Fatal(err)
	}
	s := NewServer(g)
	s.RegisterDataset("alzheimers_nfl", testReads(t))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// testReads is the small long-read set the api tests submit racon against.
func testReads(t *testing.T) *workload.ReadSet {
	t.Helper()
	rs, err := workload.GenerateLongReads(workload.LongReadConfig{
		Name: "api", Seed: 3, RefLen: 2000, ReadLen: 300, Coverage: 8,
		SubRate: 0.02, InsRate: 0.03, DelRate: 0.03, BackboneErrorRate: 0.04,
		NominalBytes: 17 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
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

func TestVersionEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, body := get(t, ts, "/api/version")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var v map[string]string
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v["name"] != "gyan" {
		t.Fatalf("version body: %s", body)
	}
}

func TestToolsEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, body := get(t, ts, "/api/tools")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var tools []map[string]any
	if err := json.Unmarshal(body, &tools); err != nil {
		t.Fatal(err)
	}
	// Everything gyan-server registers, the genomics pipeline included,
	// sorted by ID.
	var ids []string
	byID := map[string]map[string]any{}
	for _, tool := range tools {
		ids = append(ids, tool["id"].(string))
		byID[tool["id"].(string)] = tool
	}
	want := []string{"bonito", "bqsr", "bwa-mem", "pypaswas", "racon", "seqstats", "variant-caller"}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Fatalf("tools %v, want %v", ids, want)
	}
	if byID["racon"]["requires_gpu"] != true {
		t.Error("racon not flagged GPU-capable")
	}
	if byID["seqstats"]["requires_gpu"] != false {
		t.Error("seqstats flagged GPU-capable")
	}
}

func TestDatasetsEndpoint(t *testing.T) {
	ts := testServer(t)
	_, body := get(t, ts, "/api/datasets")
	var names []string
	if err := json.Unmarshal(body, &names); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "alzheimers_nfl" {
		t.Fatalf("datasets = %v", names)
	}
}

func submitJob(t *testing.T, ts *httptest.Server, req map[string]any) (int, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestSubmitJobLifecycle(t *testing.T) {
	ts := testServer(t)
	status, job := submitJob(t, ts, map[string]any{
		"tool":    "racon",
		"dataset": "alzheimers_nfl",
		"params":  map[string]string{"scale": "0.001", "threads": "4"},
	})
	if status != http.StatusCreated {
		t.Fatalf("submit status %d: %v", status, job)
	}
	if job["state"] != "ok" {
		t.Fatalf("job state %v: %v", job["state"], job["info"])
	}
	if job["gpu_enabled"] != true {
		t.Error("GPU not enabled for racon")
	}
	if !strings.Contains(job["command"].(string), "racon_gpu") {
		t.Errorf("command = %v", job["command"])
	}
	if job["wall_seconds"].(float64) <= 0 {
		t.Error("no wall time")
	}

	// The job shows up in the listing and by ID.
	_, listBody := get(t, ts, "/api/jobs")
	var jobs []map[string]any
	if err := json.Unmarshal(listBody, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("job list has %d entries", len(jobs))
	}
	resp, oneBody := get(t, ts, "/api/jobs/1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job lookup status %d", resp.StatusCode)
	}
	var one map[string]any
	if err := json.Unmarshal(oneBody, &one); err != nil {
		t.Fatal(err)
	}
	if one["id"].(float64) != 1 {
		t.Fatalf("job id = %v", one["id"])
	}
}

func TestSubmitContainerized(t *testing.T) {
	ts := testServer(t)
	status, job := submitJob(t, ts, map[string]any{
		"tool":    "racon",
		"dataset": "alzheimers_nfl",
		"runtime": "docker",
		"params":  map[string]string{"scale": "0.001"},
	})
	if status != http.StatusCreated {
		t.Fatalf("submit status %d: %v", status, job)
	}
	cc, ok := job["container_command"].([]any)
	if !ok || len(cc) == 0 {
		t.Fatalf("no container command: %v", job)
	}
	joined := make([]string, len(cc))
	for i, c := range cc {
		joined[i] = c.(string)
	}
	if !strings.Contains(strings.Join(joined, " "), "--gpus all") {
		t.Errorf("container command lacks --gpus all: %v", joined)
	}
}

func TestSubmitErrors(t *testing.T) {
	ts := testServer(t)
	status, _ := submitJob(t, ts, map[string]any{"tool": "nosuch", "dataset": "alzheimers_nfl"})
	if status != http.StatusBadRequest {
		t.Errorf("unknown tool status %d", status)
	}
	status, _ = submitJob(t, ts, map[string]any{"tool": "racon", "dataset": "nosuch"})
	if status != http.StatusBadRequest {
		t.Errorf("unknown dataset status %d", status)
	}
	resp, err := http.Post(ts.URL+"/api/jobs", "application/json", strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body status %d", resp.StatusCode)
	}
	status, body := submitJob(t, ts, map[string]any{
		"tool": "seqstats", "dataset": "alzheimers_nfl",
		"params": map[string]string{"padding": strings.Repeat("x", maxBodyBytes)},
	})
	if status != http.StatusRequestEntityTooLarge || body["error"] == nil {
		t.Errorf("oversized body status %d: %v", status, body)
	}
	if _, list := get(t, ts, "/api/jobs"); string(bytes.TrimSpace(list)) != "[]" {
		t.Errorf("rejected submissions left jobs behind: %s", list)
	}
	// The cluster server's POST is held to the same bound.
	cts, c := testClusterServer(t, 1)
	resp, cbody := postJSON(t, cts, "/api/cluster/jobs", map[string]any{
		"tool": "racon", "dataset": "reads",
		"params": map[string]string{"padding": strings.Repeat("x", maxBodyBytes)},
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !bytes.Contains(cbody, []byte(`"error"`)) {
		t.Errorf("oversized cluster body status %d: %.200s", resp.StatusCode, cbody)
	}
	if keys := c.Keys(); len(keys) != 0 {
		t.Errorf("rejected cluster submission routed keys %v", keys)
	}
}

func TestJobLookupErrors(t *testing.T) {
	ts := testServer(t)
	resp, _ := get(t, ts, "/api/jobs/99")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job status %d", resp.StatusCode)
	}
	// The lookup is by ID, not by position: with jobs 1 and 2 on the server,
	// their neighbours on either side are still unknown.
	submitOne(t, ts)
	submitOne(t, ts)
	for path, want := range map[string]int{
		"/api/jobs/-1": http.StatusNotFound, "/api/jobs/0": http.StatusNotFound,
		"/api/jobs/1": http.StatusOK, "/api/jobs/2": http.StatusOK,
		"/api/jobs/3": http.StatusNotFound,
	} {
		resp, body := get(t, ts, path)
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d: %s", path, resp.StatusCode, want, body)
		}
		var job jobJSON
		if want == http.StatusOK && (json.Unmarshal(body, &job) != nil || "/api/jobs/"+itoa(job.ID) != path) {
			t.Errorf("%s answered with job %d: %s", path, job.ID, body)
		}
	}
	resp, _ = get(t, ts, "/api/jobs/abc")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status %d", resp.StatusCode)
	}
}

func TestSMIEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, body := get(t, ts, "/api/smi")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("smi status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "NVIDIA-SMI 455.45.01") {
		t.Errorf("console output missing header:\n%s", body)
	}
	resp, body = get(t, ts, "/api/smi?format=xml")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "<nvidia_smi_log>") {
		t.Errorf("xml output wrong: %d\n%s", resp.StatusCode, body)
	}
	resp, _ = get(t, ts, "/api/smi?format=yaml")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad format status %d", resp.StatusCode)
	}
}

func TestMonitorEndpoint(t *testing.T) {
	ts := testServer(t)
	// Run one job so the monitor has samples.
	if status, _ := submitJob(t, ts, map[string]any{
		"tool": "racon", "dataset": "alzheimers_nfl",
		"params": map[string]string{"scale": "0.01"},
	}); status != http.StatusCreated {
		t.Fatal("submit failed")
	}
	resp, body := get(t, ts, "/api/monitor")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("monitor status %d", resp.StatusCode)
	}
	var stats []map[string]any
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no monitor stats after a job ran")
	}
}

func TestHistoryEndpoint(t *testing.T) {
	ts := testServer(t)
	if status, _ := submitJob(t, ts, map[string]any{
		"tool": "racon", "dataset": "alzheimers_nfl",
		"params": map[string]string{"scale": "0.001"},
	}); status != http.StatusCreated {
		t.Fatal("submit failed")
	}
	resp, body := get(t, ts, "/api/history")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("history status %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 1 {
		t.Fatalf("history has %d lines", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["tool"] != "racon" || rec["output_digest"] == "" {
		t.Fatalf("history record = %v", rec)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := testServer(t)
	// Every route of the single server, with every verb it does not serve:
	// each answers 405 and names the verbs it does serve.
	routes := []struct {
		path    string
		allowed []string
	}{
		{"/api/version", []string{http.MethodGet}},
		{"/api/tools", []string{http.MethodGet}},
		{"/api/datasets", []string{http.MethodGet}},
		{"/api/jobs", []string{http.MethodGet, http.MethodPost}},
		{"/api/jobs/1", []string{http.MethodGet}},
		{"/api/jobs/1/resubmit", []string{http.MethodPost}},
		{"/api/jobs/1/trail", []string{http.MethodGet}},
		{"/api/smi", []string{http.MethodGet}},
		{"/api/monitor", []string{http.MethodGet}},
		{"/api/faults", []string{http.MethodGet}},
		{"/api/history", []string{http.MethodGet}},
		{"/api/workflows", []string{http.MethodGet, http.MethodPost}},
		{"/api/workflows/1", []string{http.MethodGet}},
		{"/api/recovery", []string{http.MethodGet, http.MethodPost}},
		{"/api/workflows/1/trail", []string{http.MethodGet}},
		{"/metrics", []string{http.MethodGet}},
	}
	verbs := []string{
		http.MethodGet, http.MethodPost, http.MethodPut,
		http.MethodDelete, http.MethodPatch,
	}
	for _, rt := range routes {
		for _, verb := range verbs {
			if slices.Contains(rt.allowed, verb) {
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
			resp.Body.Close()
			want := strings.Join(rt.allowed, ", ")
			if allow := resp.Header.Get("Allow"); resp.StatusCode != http.StatusMethodNotAllowed || allow != want {
				t.Errorf("%s %s: status %d, Allow %q, want 405 and %s", verb, rt.path, resp.StatusCode, allow, want)
			}
		}
	}
}

func TestSMIMonitorFormats(t *testing.T) {
	ts := testServer(t)
	resp, body := get(t, ts, "/api/smi?format=pmon")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "# gpu") {
		t.Errorf("pmon: %d\n%s", resp.StatusCode, body)
	}
	resp, body = get(t, ts, "/api/smi?format=dmon")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "# time-s") {
		t.Errorf("dmon: %d\n%s", resp.StatusCode, body)
	}
}
