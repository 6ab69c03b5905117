package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"gyan/internal/galaxy"
	"gyan/internal/journal"
	"gyan/internal/workload"
)

// refusedProbes are four submissions their wrappers refuse: a scale that is
// no float, a misspelt key beside a model the bonito wrapper does not offer,
// seqstats (fasta) over the fast5 squiggle set, and racon with zero threads.
var refusedProbes = []map[string]any{
	{"tool": "bonito", "dataset": "squiggles", "params": map[string]string{"scale": "abc"}},
	{"tool": "bonito", "dataset": "squiggles", "params": map[string]string{"scael": "0.001", "model": "nonexistent"}},
	{"tool": "seqstats", "dataset": "squiggles"},
	{"tool": "racon", "dataset": "reads", "params": map[string]string{"threads": "0"}},
}

func testSquiggles(t *testing.T) *workload.SquiggleSet {
	t.Helper()
	set, err := workload.GenerateSquiggles(workload.SquiggleConfig{
		Name: "api", Seed: 6, Reads: 4, BasesPerRead: 80,
		SamplesPerBase: 6, NoiseSigma: 0.03, NominalBytes: 1536 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// journalRecords counts the records the directory holds.
func journalRecords(t *testing.T, dir string) int {
	t.Helper()
	recs, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(recs)
}

// TestPostJobsRefusesWhatTheWrapperRefuses: each probe is a 400 that takes
// no job ID and leaves no journal record.
func TestPostJobsRefusesWhatTheWrapperRefuses(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	g := galaxy.New(nil, galaxy.WithJournal(j, "h1"))
	if err := g.RegisterDefaultTools(); err != nil {
		t.Fatal(err)
	}
	s := NewServer(g)
	s.RegisterDataset("squiggles", testSquiggles(t))
	s.RegisterDataset("reads", testReads(t))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for _, probe := range refusedProbes {
		if status, body := submitJob(t, ts, probe); status != http.StatusBadRequest || body["error"] == nil {
			t.Errorf("%v: status %d, body %v; want a 400", probe, status, body)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := journalRecords(t, dir); n != 0 {
		t.Errorf("refused submits left %d journal records", n)
	}
	status, job := submitJob(t, ts, map[string]any{
		"tool": "bonito", "dataset": "squiggles", "params": map[string]string{"scale": "0.001"},
	})
	if status != http.StatusCreated || job["id"] != float64(1) {
		t.Errorf("first valid submit: status %d, job %v; want 201 with id 1", status, job)
	}
}

// TestClusterPostJobsRefusesWhatTheWrapperRefuses is the same at
// POST /api/cluster/jobs: no member takes a job ID or a cluster key, and no
// member's journal gains a record.
func TestClusterPostJobsRefusesWhatTheWrapperRefuses(t *testing.T) {
	ts, c := testClusterServer(t, 2)
	c.RegisterDataset("squiggles", testSquiggles(t))
	count := func() int {
		if err := c.SyncJournals(); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, dir := range c.JournalDirs() {
			n += journalRecords(t, dir)
		}
		return n
	}
	before := count()
	for _, probe := range refusedProbes {
		if resp, body := postJSON(t, ts, "/api/cluster/jobs", probe); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%v: status %d, body %s; want a 400", probe, resp.StatusCode, body)
		}
	}
	if after := count(); after != before {
		t.Errorf("refused submits left %d journal records", after-before)
	}
	resp, body := postJSON(t, ts, "/api/cluster/jobs", map[string]any{
		"tool": "bonito", "dataset": "squiggles", "params": map[string]string{"scale": "0.001"},
	})
	var job struct {
		Key uint64 `json:"key"`
		ID  int    `json:"id"`
	}
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || job.Key != 0 || job.ID != 1 {
		t.Errorf("first valid submit: status %d, body %s; want 202 with key 0 and id 1", resp.StatusCode, body)
	}
}
