package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"gyan/internal/faults"
	"gyan/internal/galaxy"
	"gyan/internal/journal"
	"gyan/internal/workload"
)

// journaledServer builds a server over a journaled Galaxy whose first racon
// job dead-letters (permanent exec fault, one shot).
func journaledServer(t *testing.T, dir string) (*httptest.Server, *journal.Journal) {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	plan := faults.NewPlan(7, faults.Rule{
		Match: faults.Match{Op: faults.OpExec, Job: 1},
		Fault: faults.Fault{Class: faults.Permanent, Msg: "ECC uncorrectable"},
		Count: 1,
	})
	g := galaxy.New(nil,
		galaxy.WithJournal(j, "h1"),
		galaxy.WithFaultPlan(plan),
	)
	if err := g.RegisterDefaultTools(); err != nil {
		t.Fatal(err)
	}
	s := NewServer(g)
	rs, err := workload.GenerateLongReads(workload.LongReadConfig{
		Name: "api", Seed: 3, RefLen: 2000, ReadLen: 300, Coverage: 8,
		SubRate: 0.02, InsRate: 0.03, DelRate: 0.03, BackboneErrorRate: 0.04,
		NominalBytes: 17 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterDataset("reads", rs)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, j
}

func submitRacon(t *testing.T, ts *httptest.Server) jobJSON {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"tool":    "racon",
		"params":  map[string]string{"scale": "0.001"},
		"dataset": "reads",
	})
	resp, err := http.Post(ts.URL+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

func TestResubmitEndpointRevivesDeadLetter(t *testing.T) {
	ts, _ := journaledServer(t, t.TempDir())
	job := submitRacon(t, ts)
	if job.State != "dead_letter" {
		t.Fatalf("seed job state = %s, want dead_letter", job.State)
	}

	resp, err := http.Post(ts.URL+"/api/jobs/1/resubmit", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("resubmit status = %d", resp.StatusCode)
	}
	var revived jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&revived); err != nil {
		t.Fatal(err)
	}
	if revived.State != "ok" {
		t.Fatalf("resubmitted job state = %s (%s)", revived.State, revived.Info)
	}
	if len(revived.Failures) != 1 {
		t.Errorf("failure log not retained: %d entries", len(revived.Failures))
	}

	// A second resubmit must conflict (the job is ok now), an unknown job
	// must 404, and GET must stay method-gated.
	if resp, _ := http.Post(ts.URL+"/api/jobs/1/resubmit", "", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("resubmit of ok job = %d, want 409", resp.StatusCode)
	}
	if resp, _ := http.Post(ts.URL+"/api/jobs/99/resubmit", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("resubmit of unknown job = %d, want 404", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/api/jobs/1/resubmit"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET resubmit = %d, want 405", resp.StatusCode)
	}
}

func TestRecoveryEndpointStatusAndCompact(t *testing.T) {
	ts, _ := journaledServer(t, t.TempDir())
	submitRacon(t, ts)

	resp, body := get(t, ts, "/api/recovery")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var status struct {
		Handler    string `json:"handler"`
		Journaling bool   `json:"journaling"`
		Recovered  bool   `json:"recovered"`
		Stats      *struct {
			Appends int `json:"Appends"`
		} `json:"journal_stats"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if status.Handler != "h1" || !status.Journaling || status.Recovered {
		t.Fatalf("cold-start status = %+v", status)
	}
	if status.Stats == nil || status.Stats.Appends == 0 {
		t.Fatalf("no journal appends surfaced: %s", body)
	}

	cresp, err := http.Post(ts.URL+"/api/recovery?action=compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("compact status = %d", cresp.StatusCode)
	}
	if bresp, _ := http.Post(ts.URL+"/api/recovery", "", nil); bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST without action = %d, want 400", bresp.StatusCode)
	}
}

// TestRecoveryEndpointAfterRestart restarts a journaled server and reads its
// jobs back: one dead-lettered and one ok. Each job's placement — its
// destination, devices, PID and info — reads the same after the restart as
// before it, and the same again after a compaction and a second restart.
// (The command line is not journaled; DESIGN §9 says why.) So does each
// job's trail, less the scheduler events no record carries: a compacted
// journal holds the records the live one did, in their order.
func TestRecoveryEndpointAfterRestart(t *testing.T) {
	dir := t.TempDir()
	ts, j := journaledServer(t, dir)
	job := submitRacon(t, ts)
	if ok := submitRacon(t, ts); ok.State != "ok" {
		t.Fatalf("second job = %s (%s), want ok", ok.State, ok.Info)
	}
	view := func(ts *httptest.Server, id int) jobJSON {
		t.Helper()
		resp, body := get(t, ts, fmt.Sprintf("/api/jobs/%d", id))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d lookup = %d", id, resp.StatusCode)
		}
		var got jobJSON
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	placed := func(v jobJSON) string {
		return fmt.Sprintf("%s on %s [%s] pid %d: %q", v.State, v.Destination, v.VisibleDevices, v.PID, v.Info)
	}
	// trail lists a job's journaled steps as name@at#attempt:detail.
	trail := func(ts *httptest.Server, id int) []string {
		t.Helper()
		resp, body := get(t, ts, fmt.Sprintf("/api/jobs/%d/trail", id))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d trail = %d: %s", id, resp.StatusCode, body)
		}
		var tr galaxy.Trace
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range tr.Events {
			switch e.Name {
			case "map", "schedule", "queue":
				continue // observed, not journaled
			}
			out = append(out, fmt.Sprintf("%s@%v#%d:%s", e.Name, e.At, e.Attempt, e.Detail))
		}
		return out
	}
	var want [2]string
	var wantTrail [2][]string
	for i := range want {
		want[i] = placed(view(ts, i+1))
		wantTrail[i] = trail(ts, i+1)
	}
	steps := func(tr []string) string {
		var names []string
		for _, s := range tr {
			names = append(names, s[:strings.IndexByte(s, '@')])
		}
		return strings.Join(names, ",")
	}
	if got := steps(wantTrail[0]); got != "submit,start,attempt_fail,dead_letter" {
		t.Fatalf("dead-lettered job's trail = %v", wantTrail[0])
	}
	if got := steps(wantTrail[1]); got != "submit,start,complete" {
		t.Fatalf("ok job's trail = %v", wantTrail[1])
	}
	// First handler shuts down cleanly: HTTP server gone, journal synced.
	ts.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a restart: lock the directory, replay it into a fresh Galaxy
	// and serve it.
	restart := func() (*httptest.Server, *galaxy.Galaxy, *journal.Journal) {
		t.Helper()
		j2, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = j2.Close() })
		recs, rerr := journal.Replay(dir)
		g2 := galaxy.New(nil, galaxy.WithJournal(j2, "h1"))
		if err := g2.RegisterDefaultTools(); err != nil {
			t.Fatal(err)
		}
		rs, err := workload.GenerateLongReads(workload.LongReadConfig{
			Name: "api", Seed: 3, RefLen: 2000, ReadLen: 300, Coverage: 8,
			SubRate: 0.02, InsRate: 0.03, DelRate: 0.03, BackboneErrorRate: 0.04,
			NominalBytes: 17 << 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		g2.RegisterDataset("reads", rs)
		if _, err := g2.Recover(recs, rerr, galaxy.RecoverOptions{
			RestartDelay: time.Minute,
		}); err != nil {
			t.Fatal(err)
		}
		g2.Run()
		ts2 := httptest.NewServer(NewServer(g2).Handler())
		t.Cleanup(ts2.Close)
		return ts2, g2, j2
	}
	ts2, g2, j2 := restart()

	resp, body := get(t, ts2, "/api/recovery")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var status struct {
		Recovered bool                   `json:"recovered"`
		Report    *galaxy.RecoveryReport `json:"report"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if !status.Recovered || status.Report == nil {
		t.Fatalf("restarted handler reports no recovery: %s", body)
	}
	if status.Report.DeadLettered != 1 || status.Report.Completed != 1 {
		t.Fatalf("report = %+v", status.Report)
	}

	// The dead-lettered job survived the restart and is visible.
	if got := view(ts2, 1); got.State != job.State || len(got.Failures) != len(job.Failures) {
		t.Fatalf("job after restart = %s (%d failures), want %s (%d)",
			got.State, len(got.Failures), job.State, len(job.Failures))
	}
	for i := range want {
		if got := placed(view(ts2, i+1)); got != want[i] {
			t.Errorf("job %d after restart reads %s, before it %s", i+1, got, want[i])
		}
		if got := trail(ts2, i+1); !slices.Equal(got, wantTrail[i]) {
			t.Errorf("job %d's trail after restart reads %v, before it %v", i+1, got, wantTrail[i])
		}
	}

	// Compacted, the journal brings the same view back.
	if err := g2.SnapshotJournal(); err != nil {
		t.Fatal(err)
	}
	ts2.Close()
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	ts3, _, _ := restart()
	for i := range want {
		if got := placed(view(ts3, i+1)); got != want[i] {
			t.Errorf("job %d after compaction and restart reads %s, before it %s", i+1, got, want[i])
		}
		if got := trail(ts3, i+1); !slices.Equal(got, wantTrail[i]) {
			t.Errorf("job %d's trail after compaction and restart reads %v, before it %v", i+1, got, wantTrail[i])
		}
	}
}
