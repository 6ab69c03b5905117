package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gyan/internal/faults"
	"gyan/internal/galaxy"
	"gyan/internal/journal"
	"gyan/internal/workload"
)

// Front-door cost tests: what a submitting request leaves behind. A POST
// runs its job to completion before it answers, so after the answer the
// engine must be quiescent — no sampler tick, no timer — and the server no
// older than the job's own virtual run time plus the closing sample.

// frontDoor is gyan-server -journal in miniature, with the engine, journal
// and directory in the test's reach.
type frontDoor struct {
	ts  *httptest.Server
	g   *galaxy.Galaxy
	j   *journal.Journal
	dir string
}

func newFrontDoor(t *testing.T, opts ...galaxy.Option) *frontDoor {
	t.Helper()
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{DurableSubmits: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	g := galaxy.New(nil, append([]galaxy.Option{
		galaxy.WithJournal(j, "h1"), galaxy.WithWallClock(time.Now),
	}, opts...)...)
	if err := g.RegisterDefaultTools(); err != nil {
		t.Fatal(err)
	}
	squiggles, err := workload.GenerateSquiggles(workload.SquiggleConfig{
		Name: "api", Seed: 6, Reads: 5, BasesPerRead: 100,
		SamplesPerBase: 6, NoiseSigma: 0.03, NominalBytes: 1536 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(g)
	s.RegisterDataset("alzheimers_nfl", testReads(t))
	s.RegisterDataset("acinetobacter_pittii", squiggles)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &frontDoor{ts: ts, g: g, j: j, dir: dir}
}

// quiescent fails the test if the reply just received left engine events
// behind.
func (fd *frontDoor) quiescent(t *testing.T, what string) {
	t.Helper()
	if n := fd.g.Engine.Pending(); n != 0 {
		t.Fatalf("%s answered with %d engine events still pending", what, n)
	}
}

// samples is the monitor's lifetime sample count summed over devices, as
// GET /api/monitor reports it.
func (fd *frontDoor) samples(t *testing.T) int {
	t.Helper()
	_, body := get(t, fd.ts, "/api/monitor")
	var stats []struct{ Samples int }
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("/api/monitor: %v: %s", err, body)
	}
	total := 0
	for _, s := range stats {
		total += s.Samples
	}
	return total
}

// maxSamplesPerJob bounds what one job may cost the monitor, summed over the
// two devices: twenty ticks, where a one-hour ticker took 7 200.
const maxSamplesPerJob = 40

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func TestPostJobsIsStationary(t *testing.T) {
	const jobs, heapFrom = 300, 50
	fd := newFrontDoor(t)
	clock := fd.g.Engine.Clock()
	start := clock.Now()
	var heapAtFrom int64
	for i := 1; i <= jobs; i++ {
		status, job := submitJob(t, fd.ts, map[string]any{"tool": "seqstats", "dataset": "alzheimers_nfl"})
		if status != http.StatusCreated || job["state"] != "ok" {
			t.Fatalf("job %d: status %d: %v", i, status, job)
		}
		fd.quiescent(t, fmt.Sprintf("POST /api/jobs (job %d)", i))
		if i == heapFrom {
			heapAtFrom = liveHeap()
		}
	}
	heapAtEnd := liveHeap()
	elapsed := clock.Now() - start

	if elapsed >= jobs*time.Minute {
		t.Errorf("%d seqstats jobs advanced the virtual clock by %v: a minute or more a job", jobs, elapsed)
	}
	if got := fd.samples(t); got > jobs*maxSamplesPerJob {
		t.Errorf("monitor took %d samples over %d jobs, want at most %d a job", got, jobs, maxSamplesPerJob)
	}
	// The lease trail follows virtual time, one heartbeat per half TTL of
	// activity: with the clock bounded above, so is the trail (an hour a job
	// was one lease record a job).
	if err := fd.j.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, err := journal.Replay(fd.dir)
	if err != nil {
		t.Fatal(err)
	}
	leases := 0
	for _, rec := range recs {
		if rec.Type == journal.TypeLease {
			leases++
		}
	}
	if limit := 2 + int(elapsed/(galaxy.DefaultLeaseTTL/2)); leases > limit {
		t.Errorf("%d lease records over %v of virtual time, want at most %d", leases, elapsed, limit)
	}
	if perJob := (heapAtEnd - heapAtFrom) / (jobs - heapFrom); perJob >= 64<<10 {
		t.Errorf("live heap grew by %d KiB a job between job %d and job %d, want under 64", perJob>>10, heapFrom, jobs)
	}

	t.Run("resubmit", func(t *testing.T) {
		fd := newFrontDoor(t, galaxy.WithFaultPlan(faults.NewPlan(7, faults.Rule{
			Match: faults.Match{Op: faults.OpExec, Job: 1},
			Fault: faults.Fault{Class: faults.Permanent, Msg: "ECC uncorrectable"},
			Count: 1,
		})))
		status, job := submitJob(t, fd.ts, map[string]any{
			"tool": "racon", "dataset": "alzheimers_nfl", "params": fastRacon,
		})
		if status != http.StatusCreated || job["state"] != "dead_letter" {
			t.Fatalf("seed job: status %d: %v", status, job)
		}
		fd.quiescent(t, "POST /api/jobs")
		resp, err := http.Post(fd.ts.URL+"/api/jobs/1/resubmit", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("resubmit status %d", resp.StatusCode)
		}
		fd.quiescent(t, "POST /api/jobs/1/resubmit")
		if got := fd.samples(t); got == 0 || got > 2*maxSamplesPerJob {
			t.Errorf("monitor took %d samples over a submit and a resubmit, want 1..%d", got, 2*maxSamplesPerJob)
		}
	})

	t.Run("workflow", func(t *testing.T) {
		fd := newFrontDoor(t)
		if wf := submitTestWorkflow(t, fd.ts); wf["state"] != "ok" {
			t.Fatalf("workflow state %v: %v", wf["state"], wf["info"])
		}
		fd.quiescent(t, "POST /api/workflows")
		if got := fd.samples(t); got == 0 || got > 2*maxSamplesPerJob {
			t.Errorf("monitor took %d samples over a two-step workflow, want 1..%d", got, 2*maxSamplesPerJob)
		}
	})
}

// TestServerRaceHammer is the -race hammer for the single server's real
// handler: concurrent submits of the http_jobs mix, every read endpoint and
// the wall-clock lease heartbeat gyan-server runs beside them. Every POST
// must be answered 201/ok, and the completion counter must agree with the
// number acknowledged. `make hammer-api` runs it twice over.
func TestServerRaceHammer(t *testing.T) {
	const submitters, perSubmitter = 4, 25
	fd := newFrontDoor(t)
	mix := []string{
		`{"tool":"seqstats","dataset":"alzheimers_nfl"}`,
		`{"tool":"bonito","dataset":"acinetobacter_pittii","params":{"scale":"0.001"}}`,
		`{"tool":"bonito","dataset":"acinetobacter_pittii","runtime":"docker","params":{"scale":"0.001"}}`,
	}

	stop := make(chan struct{})
	var background sync.WaitGroup
	background.Add(1)
	go func() { // gyan-server's heartbeat, at a hammer's pace
		defer background.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				fd.g.WriteLease()
			}
		}
	}()
	var acked atomic.Int64
	for _, path := range []string{"/api/jobs", "/api/jobs/1", "/api/monitor", "/api/smi", "/metrics"} {
		background.Add(1)
		go func(path string) {
			defer background.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Job 1 exists once the first POST has been answered. Read
				// the count before sending: a 404 answered before that POST
				// landed is fine even if the ack arrives mid-request.
				before := acked.Load()
				resp, err := http.Get(fd.ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && !(path == "/api/jobs/1" && before == 0) {
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(path)
	}

	var posts sync.WaitGroup
	for s := 0; s < submitters; s++ {
		posts.Add(1)
		go func(s int) {
			defer posts.Done()
			for i := 0; i < perSubmitter; i++ {
				body := mix[(s+i)%len(mix)]
				resp, err := http.Post(fd.ts.URL+"/api/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("POST %s: %v", body, err)
					return
				}
				var job jobJSON
				err = json.NewDecoder(resp.Body).Decode(&job)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusCreated || job.State != "ok" {
					t.Errorf("POST %s: status %d, state %q (%s), decode error %v", body, resp.StatusCode, job.State, job.Info, err)
					return
				}
				acked.Add(1)
			}
		}(s)
	}
	posts.Wait()
	close(stop)
	background.Wait()

	if got := acked.Load(); got != submitters*perSubmitter {
		t.Fatalf("%d of %d POSTs acknowledged", got, submitters*perSubmitter)
	}
	_, body := get(t, fd.ts, "/metrics")
	want := fmt.Sprintf("gyan_jobs_completed_total{state=\"ok\"} %d\n", acked.Load())
	if !strings.Contains(string(body), want) {
		t.Errorf("/metrics lacks %q after %d acknowledged POSTs", strings.TrimSpace(want), acked.Load())
	}
	fd.quiescent(t, "the last POST")
}
