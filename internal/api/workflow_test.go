package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// postWorkflow posts a POST /api/workflows body and returns the status and
// the decoded response object.
func postWorkflow(t *testing.T, ts *httptest.Server, req map[string]any) (int, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/api/workflows", "application/json", bytes.NewReader(body))
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

var fastRacon = map[string]string{"scale": "0.001"}

// submitTestWorkflow posts the standard two-step chain; the server runs it
// to completion synchronously.
func submitTestWorkflow(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	status, wf := postWorkflow(t, ts, map[string]any{
		"name": "two-round",
		"steps": []map[string]any{
			{"tool": "racon", "dataset": "alzheimers_nfl", "params": fastRacon},
			{"tool": "racon", "chain_backbone": true, "params": fastRacon},
		},
	})
	if status != http.StatusCreated {
		t.Fatalf("workflow submit status %d: %v", status, wf)
	}
	return wf
}

func TestWorkflowEndpointIteratedPolish(t *testing.T) {
	wf := submitTestWorkflow(t, testServer(t))
	if wf["state"] != "ok" {
		t.Fatalf("workflow state %v: %v", wf["state"], wf["info"])
	}
	jobs := wf["jobs"].([]any)
	if len(jobs) != 2 {
		t.Fatalf("workflow ran %d jobs", len(jobs))
	}
	// chain_backbone feeds round 1's consensus in as round 2's draft, so
	// round 2 starts at the identity round 1 polished to.
	var draft, polished [2]float64
	for i, raw := range jobs {
		out := raw.(map[string]any)["output"].(string)
		var windows int
		if _, err := fmt.Sscanf(out, "polished %d windows: identity %f -> %f",
			&windows, &draft[i], &polished[i]); err != nil {
			t.Fatalf("job %d output %q: %v", i, out, err)
		}
	}
	if draft[1] != polished[0] || draft[1] == draft[0] {
		t.Errorf("round 2 draft identity %.4f, want round 1's polished %.4f (round 1 draft %.4f)",
			draft[1], polished[0], draft[0])
	}
}

func TestWorkflowEndpointErrors(t *testing.T) {
	ts := testServer(t)
	first := map[string]any{"tool": "racon", "dataset": "alzheimers_nfl", "params": fastRacon}
	cases := []map[string]any{
		{"name": "empty"},
		{"name": "bad-dataset", "steps": []map[string]any{
			{"tool": "racon", "dataset": "nope"},
		}},
		{"name": "bad-tool", "steps": []map[string]any{
			{"tool": "nosuch", "dataset": "alzheimers_nfl"},
		}},
		{"name": "first-step-without-dataset", "steps": []map[string]any{
			{"tool": "racon", "params": fastRacon},
		}},
		{"name": "later-step-without-dataset-or-chain", "steps": []map[string]any{
			first, {"tool": "racon", "params": fastRacon},
		}},
	}
	for _, c := range cases {
		status, body := postWorkflow(t, ts, c)
		if status != http.StatusBadRequest || body["error"] == "" {
			t.Errorf("%v: status %d: %v", c["name"], status, body)
		}
	}
	status, body := postWorkflow(t, ts, map[string]any{
		"name": strings.Repeat("x", maxBodyBytes), "steps": []map[string]any{first},
	})
	if status != http.StatusRequestEntityTooLarge || body["error"] == nil {
		t.Errorf("oversized body: status %d: %v", status, body)
	}
	// Nothing above may have registered a workflow or run a job.
	if _, body := get(t, ts, "/api/workflows"); string(bytes.TrimSpace(body)) != "[]" {
		t.Errorf("rejected submissions left workflows behind: %s", body)
	}
}

// A step that fails at run time is not a bad request: the workflow was
// accepted and ran, so the answer is 422 with the full response body, the
// failed step's job in it and the steps after it never submitted. Racon's
// wrapper (the paper's Code 3) bounds none of its integers, so a thread
// count racon itself refuses passes the submit check and fails the step.
func TestWorkflowEndpointFailingStepIs422(t *testing.T) {
	ts := testServer(t)
	status, wf := postWorkflow(t, ts, map[string]any{
		"name": "fails",
		"steps": []map[string]any{
			{"tool": "racon", "dataset": "alzheimers_nfl", "params": map[string]string{"threads": "0"}},
			{"tool": "racon", "chain_backbone": true, "params": fastRacon},
		},
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %v", status, wf)
	}
	for _, field := range []string{"name", "state", "info", "wall_seconds", "jobs"} {
		if _, ok := wf[field]; !ok {
			t.Errorf("422 body has no %q: %v", field, wf)
		}
	}
	if wf["name"] != "fails" || wf["state"] != "error" || wf["info"] == "" {
		t.Errorf("422 body = %v", wf)
	}
	jobs := wf["jobs"].([]any)
	if len(jobs) != 1 || jobs[0].(map[string]any)["state"] != "error" {
		t.Errorf("jobs = %v, want the one failed step", jobs)
	}
}

func TestWorkflowListAndDetailEndpoints(t *testing.T) {
	ts := testServer(t)

	// Empty engine: an empty JSON array, not null.
	resp, body := get(t, ts, "/api/workflows")
	if resp.StatusCode != http.StatusOK || string(bytes.TrimSpace(body)) != "[]" {
		t.Fatalf("empty list: status %d body %s", resp.StatusCode, body)
	}

	submitTestWorkflow(t, ts)

	resp, body = get(t, ts, "/api/workflows")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	var list []map[string]any
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0]["state"] != "ok" || list[0]["name"] != "two-round" {
		t.Fatalf("list = %s", body)
	}
	id := int(list[0]["id"].(float64))

	resp, body = get(t, ts, "/api/workflows/"+strconv.Itoa(id))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detail status %d", resp.StatusCode)
	}
	var detail map[string]any
	if err := json.Unmarshal(body, &detail); err != nil {
		t.Fatal(err)
	}
	steps := detail["steps"].([]any)
	if len(steps) != 2 {
		t.Fatalf("detail has %d steps: %s", len(steps), body)
	}
	for _, raw := range steps {
		st := raw.(map[string]any)
		if st["state"] != "done" || st["job"] == nil {
			t.Fatalf("step = %v", st)
		}
	}
}

func TestWorkflowTraceEndpointReturnsSpanTree(t *testing.T) {
	ts := testServer(t)
	submitTestWorkflow(t, ts)
	resp, body := get(t, ts, "/api/workflows/1/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", resp.StatusCode, body)
	}
	var tree struct {
		Workflow int `json:"workflow"`
		Steps    []struct {
			Job      int    `json:"job"`
			Step     string `json:"step"`
			Workflow int    `json:"workflow"`
			Events   []any  `json:"events"`
			Segments []any  `json:"segments"`
		} `json:"steps"`
	}
	if err := json.Unmarshal(body, &tree); err != nil {
		t.Fatal(err)
	}
	if tree.Workflow != 1 || len(tree.Steps) != 2 {
		t.Fatalf("trace tree = %s", body)
	}
	for _, st := range tree.Steps {
		if st.Workflow != 1 || st.Step == "" || len(st.Events) == 0 || len(st.Segments) == 0 {
			t.Fatalf("span = %+v", st)
		}
	}
}

func TestWorkflowEndpointNotFoundCases(t *testing.T) {
	ts := testServer(t)
	submitTestWorkflow(t, ts)
	for path, want := range map[string]int{
		"/api/workflows/99":        http.StatusNotFound, // unknown workflow
		"/api/workflows/1/nope":    http.StatusNotFound, // unknown sub-resource
		"/api/workflows/1/trace/x": http.StatusNotFound, // over-deep path
		"/api/workflows/abc":       http.StatusBadRequest,
	} {
		resp, body := get(t, ts, path)
		if resp.StatusCode != want {
			t.Errorf("%s: status %d (want %d): %s", path, resp.StatusCode, want, body)
		}
	}
}
