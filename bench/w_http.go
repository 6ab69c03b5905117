package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"gyan/internal/api"
	"gyan/internal/galaxy"
	"gyan/internal/journal"
	"gyan/internal/workload"
)

// httpKind is one entry of the http_jobs mix: the only default-dataset jobs
// that run in under 100ms (racon on the server's read set is ~10s of real
// POA per job whatever its scale).
type httpKind struct {
	body  string
	share float64
	gpu   bool
	// docker jobs must come back with a --gpus container command.
	docker bool
}

var httpMix = []httpKind{
	{body: `{"tool":"seqstats","dataset":"alzheimers_nfl"}`, share: 0.8},
	{body: `{"tool":"bonito","dataset":"acinetobacter_pittii","params":{"scale":"0.001"}}`, share: 0.1, gpu: true},
	{body: `{"tool":"bonito","dataset":"acinetobacter_pittii","runtime":"docker","params":{"scale":"0.001"}}`, share: 0.1, gpu: true, docker: true},
}

// jobReply is the part of the API's job JSON the gates read.
type jobReply struct {
	Key              uint64   `json:"key"`
	Handler          string   `json:"handler"`
	State            string   `json:"state"`
	GPUEnabled       bool     `json:"gpu_enabled"`
	VisibleDevices   string   `json:"cuda_visible_devices"`
	ContainerCommand []string `json:"container_command"`
	Info             string   `json:"info"`
	Output           string   `json:"output"`
}

// check is the per-job correctness gate of the HTTP workloads.
func (j jobReply) check(gpu, docker bool) error {
	if j.State != "ok" {
		return fmt.Errorf("state %q: %s", j.State, j.Info)
	}
	if gpu != j.GPUEnabled {
		return fmt.Errorf("gpu_enabled=%v, want %v: %s", j.GPUEnabled, gpu, j.Info)
	}
	if gpu && j.VisibleDevices == "" {
		return fmt.Errorf("GPU job without CUDA_VISIBLE_DEVICES")
	}
	if docker && !strings.Contains(strings.Join(j.ContainerCommand, " "), "--gpus") {
		return fmt.Errorf("docker job without a --gpus container command: %v", j.ContainerCommand)
	}
	if gpu {
		// "basecalled 40 reads: mean identity 0.9982"
		_, after, ok := strings.Cut(j.Output, "mean identity ")
		id, err := strconv.ParseFloat(strings.TrimSpace(after), 64)
		if !ok || err != nil || id < 0.99 {
			return fmt.Errorf("bonito identity below 0.99: %q", j.Output)
		}
	}
	return nil
}

// httpTarget is a server under load: a base URL plus the two meters the
// round reads around its measured phases.
type httpTarget struct {
	base   string
	client *http.Client
	cpu    func() time.Duration
	heap   func(gc bool) (heapStats, error)
}

func keepAliveClient(c int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: c, MaxIdleConnsPerHost: c, MaxIdleConns: c,
			IdleConnTimeout: time.Minute,
		},
	}
}

func (t httpTarget) post(path, body string, out any) (int, error) {
	resp, err := t.client.Post(t.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

func (t httpTarget) get(path string, out any) error {
	resp, err := t.client.Get(t.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// submitJob posts one job of the mix and gates its reply.
func (t httpTarget) submitJob(k httpKind) error {
	var j jobReply
	if _, err := t.post("/api/jobs", k.body, &j); err != nil {
		return err
	}
	return j.check(k.gpu, k.docker)
}

// httpDecks deals the job kinds of a round's phases: warm-up, closed, open.
func httpDecks(sz sizes, seed uint64) []int {
	return decks(seed, []float64{httpMix[0].share, httpMix[1].share, httpMix[2].share}, sz.HTTPWarm, sz.HTTPClosed, sz.HTTPOpen)
}

// httpPhases drives one server through warm-up, the closed-loop phase that
// is measured, and — in the traced pass only (sz.HTTPOpen > 0) — an
// open-loop phase, and fills the round's measured fields.
//
// The gated figures come from the closed loop because they must repeat on a
// machine whose speed drifts: a closed loop's latency and rate scale with
// the speed of the machine, while an open loop at a fixed arrival rate
// queues without bound as soon as the machine is slow enough (ten unchanged
// runs read its p90 between 55 and 560ms). The open phase reports the
// median a lone arrival sees and how late the generator ran, ungated.
//
// Traced, the closed phase runs on one connection inside the root span, so
// that request spans do not overlap and the client's latency minus the
// handler's is the HTTP stack's; the other phases record no spans.
func httpPhases(t httpTarget, c int, sz sizes, seed uint64, t0 time.Time, r *round, tr *tracer) error {
	kinds := httpDecks(sz, seed)
	job := func(offset int) func(i int) error {
		return func(i int) error { return t.submitJob(httpMix[kinds[offset+i]]) }
	}
	warm := closedLoop(sz.HTTPWarm, 1, job(0))
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d failed: %w", warm.failed, sz.HTTPWarm, warm.firstErr)
	}
	r.setup = time.Since(t0)
	samples0, _ := monitorSamples(t)
	heap0, err := t.heap(true)
	if err != nil {
		return err
	}
	cpu0 := t.cpu()
	gen0 := selfCPU()
	phases0 := time.Now()

	closedConns := c
	if tr != nil {
		closedConns = 1
		tr.paused.Store(false)
	}
	root := tr.start("loadgen.round", "", 0)
	closed := closedLoop(sz.HTTPClosed, closedConns, job(sz.HTTPWarm))
	root.end()
	if tr != nil {
		tr.paused.Store(true)
	}
	cpuClosed := t.cpu()
	var open loadResult
	if sz.HTTPOpen > 0 {
		due, err := workload.PoissonArrivals(seed, sz.HTTPRate, sz.HTTPOpen)
		if err != nil {
			return err
		}
		open = openLoop(due, c, job(sz.HTTPWarm+sz.HTTPClosed))
	}

	phasesWall := time.Since(phases0)
	gen := selfCPU() - gen0
	heap1, err := t.heap(true)
	if err != nil {
		return err
	}
	samples1, monErr := monitorSamples(t)

	r.attempted = sz.HTTPClosed + sz.HTTPOpen
	r.failed = closed.failed + open.failed
	if r.failed > 0 {
		first := closed.firstErr
		if first == nil {
			first = open.firstErr
		}
		return fmt.Errorf("%d of %d requests failed: %w", r.failed, r.attempted, first)
	}
	done := float64(r.attempted)
	r.jobs = sz.HTTPClosed
	r.wall = closed.wall
	r.lat = closed.ok()
	r.cpu = cpuClosed - cpu0
	r.set("alloc_kb_per_job", (heap1.totalAlloc-heap0.totalAlloc)/1024/done)
	r.set("live_kb_per_job", (heap1.heapAlloc-heap0.heapAlloc)/1024/done)
	r.set("server.gc_pause_ms", (heap1.pauseNS-heap0.pauseNS)/1e6)
	r.set("loadgen.cpu_share", gen.Seconds()/phasesWall.Seconds())
	if sz.HTTPOpen > 0 {
		r.set("job_p50_ms", durationSeries(open.ok(), time.Millisecond).median())
		r.set("loadgen.lag_p99_ms", maxLagMS(open.lag))
	}
	if monErr == nil {
		r.set("monitor.samples_per_job", float64(samples1-samples0)/done)
	}
	return nil
}

// maxLagMS reports how late the open-loop generator ran. With fewer than a
// thousand sends no p99 has ten samples beyond it, so the figure is the
// worst send: an upper bound on the p99 its name promises.
func maxLagMS(lag []time.Duration) float64 {
	s := durationSeries(lag, time.Millisecond)
	if p99, err := s.quantile(0.99); err == nil {
		return p99
	}
	if s.n() == 0 {
		return 0
	}
	return s.sorted[s.n()-1]
}

// monitorSamples is the hardware monitor's retained sample count, summed
// over devices, from GET /api/monitor.
func monitorSamples(t httpTarget) (int, error) {
	var stats []struct{ Samples int }
	if err := t.get("/api/monitor", &stats); err != nil {
		return 0, err
	}
	total := 0
	for _, s := range stats {
		total += s.Samples
	}
	return total, nil
}

// httpRound is one repetition of http_jobs against a fresh gyan-server
// process with a durable journal.
func httpRound(e *env, sz sizes, seed uint64) (*round, error) {
	r := &round{}
	t0 := time.Now()
	dir, err := e.tempDir("http_jobs")
	if err != nil {
		return nil, err
	}
	p, err := e.startServer("http_jobs", "-journal", dir, "-pprof")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer p.stop()
	client := keepAliveClient(e.c)
	defer client.CloseIdleConnections()
	t := httpTarget{
		base: "http://" + p.addr, client: client,
		cpu: func() time.Duration {
			d, _ := p.cpu()
			return d
		},
		heap: func(gc bool) (heapStats, error) { return p.heap(client, gc) },
	}
	if err := httpPhases(t, e.c, sz, seed, t0, r, nil); err != nil {
		return nil, fmt.Errorf("http_jobs: %w\n%s", err, p.logTail())
	}
	r.set("server.boot_ms", p.bootMS)
	r.set("server.rss_peak_mb", p.rssPeakMB())
	t1 := time.Now()
	m, err := scrape(t)
	if err != nil {
		return nil, fmt.Errorf("http_jobs: %w", err)
	}
	r.set("obs.scrape_ms", float64(time.Since(t1))/1e6)
	n := float64(sz.HTTPWarm + sz.HTTPOpen + sz.HTTPClosed)
	r.set("journal.fsyncs_per_job", m["gyan_journal_syncs_total"]/n)
	r.set("journal.records_per_job", m["gyan_journal_appends_total"]/n)
	r.set("journal.bytes_per_job", m["gyan_journal_bytes_total"]/n)
	surveys := m["gyan_smi_cache_hits_total"] + m["gyan_smi_cache_misses_total"]
	r.set("smi.surveys_per_job", surveys/n)
	if surveys > 0 {
		r.set("smi.cache_hit_ratio", m["gyan_smi_cache_hits_total"]/surveys)
	}
	if ok := m[`gyan_jobs_completed_total{state="ok"}`]; ok != n {
		return nil, fmt.Errorf("http_jobs: server counts %v jobs ok, %v were acknowledged", ok, n)
	}
	return r, nil
}

// scrape reads a server's /metrics exposition into series -> value.
func scrape(t httpTarget) (map[string]float64, error) {
	resp, err := t.client.Get(t.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// sumFamily adds up every series of one metric family.
func sumFamily(series map[string]float64, family string) float64 {
	total := 0.0
	for name, v := range series {
		if name == family || strings.HasPrefix(name, family+"{") {
			total += v
		}
	}
	return total
}

// httpReplay is http_jobs in-process: the engine wired as gyan-server's
// single-node mode wires it, api.NewServer's handler on a loopback listener
// behind a timing middleware, tool executors wrapped.
func httpReplay(e *env, sz sizes, seed uint64, tr *tracer) (*round, error) {
	r := &round{}
	t0 := time.Now()
	dir, err := e.tempDir("http_replay")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(dir, journalOptions())
	if err != nil {
		return nil, err
	}
	forget := e.clean.add(func() { _ = j.Crash() })
	defer forget()
	defer j.Crash() // releases the directory on an early return; a no-op once closed
	g := galaxy.New(nil, galaxy.WithJournal(j, "main"), galaxy.WithWallClock(time.Now))
	if err := g.RegisterDefaultTools(); err != nil {
		return nil, err
	}
	if err := g.RegisterGenomicsTools(); err != nil {
		return nil, err
	}
	srv := api.NewServer(g)
	datasets, err := defaultDatasets(42)
	if err != nil {
		return nil, err
	}
	for name, ds := range datasets {
		srv.RegisterDataset(name, ds)
	}
	if tr != nil {
		if err := wrapExecutors(g, []string{"seqstats", "bonito"}, tr, "api.handler"); err != nil {
			return nil, err
		}
	}
	inner := srv.Handler()
	handler := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if tr == nil || req.Method != http.MethodPost {
			inner.ServeHTTP(w, req)
			return
		}
		sp := tr.start("api.handler", "loadgen.request", 0)
		inner.ServeHTTP(w, req)
		sp.end()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // returns ErrServerClosed on Close
		close(served)
	}()
	stop := func() {
		_ = hs.Close()
		<-served
	}
	forgetStop := e.clean.add(stop)
	defer func() { stop(); forgetStop() }()
	client := keepAliveClient(e.c)
	defer client.CloseIdleConnections()
	t := httpTarget{
		base: "http://" + ln.Addr().String(), client: client, cpu: selfCPU,
		heap: func(gc bool) (heapStats, error) { return localHeap(gc), nil },
	}
	if tr != nil {
		// Every request is one span from the client's side; the handler's
		// span nests inside it, the executor's inside the handler's.
		post := t.client.Transport
		t.client = &http.Client{Timeout: t.client.Timeout, Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			if req.Method != http.MethodPost {
				return post.RoundTrip(req)
			}
			sp := tr.start("loadgen.request", "loadgen.round", 0)
			resp, err := post.RoundTrip(req)
			if err == nil {
				// The span must cover the body: the handler writes it last.
				var body []byte
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				resp.Body = io.NopCloser(bytes.NewReader(body))
			}
			sp.end()
			return resp, err
		})}
		tr.paused.Store(true)
	}
	err = httpPhases(t, e.c, sz, seed, t0, r, tr)
	if err != nil {
		return nil, fmt.Errorf("http_jobs replay: %w", err)
	}
	stop() // no request may race the direct calls below
	if err := directCost(g, datasets, sz, seed, r); err != nil {
		return nil, fmt.Errorf("http_jobs replay: %w", err)
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	return r, nil
}

// directCost runs the closed phase's jobs once more through the engine's
// own Submit and Run, without HTTP, JSON or the monitor: what the handler
// spends beyond this is the api layer's. The handler's seams are private,
// so the split is measured beside it, not inside it.
func directCost(g *galaxy.Galaxy, datasets map[string]any, sz sizes, seed uint64, r *round) error {
	type direct struct {
		tool, dataset, runtime string
		params                 map[string]string
	}
	mix := []direct{
		{tool: "seqstats", dataset: "alzheimers_nfl"},
		{tool: "bonito", dataset: "acinetobacter_pittii", params: map[string]string{"scale": "0.001"}},
		{tool: "bonito", dataset: "acinetobacter_pittii", runtime: "docker", params: map[string]string{"scale": "0.001"}},
	}
	kinds := httpDecks(sz, seed)
	var submit, run, snap []float64
	for _, kind := range kinds[sz.HTTPWarm : sz.HTTPWarm+sz.HTTPClosed] {
		k := mix[kind]
		t0 := time.Now()
		job, err := g.Submit(k.tool, k.params, datasets[k.dataset], galaxy.SubmitOptions{Runtime: k.runtime, DatasetName: k.dataset})
		if err != nil {
			return err
		}
		t1 := time.Now()
		g.Run()
		t2 := time.Now()
		if job.State != galaxy.StateOK {
			return fmt.Errorf("direct %s job ended %s: %s", k.tool, job.State, job.Info)
		}
		submit = append(submit, float64(t1.Sub(t0))/1e3)
		run = append(run, float64(t2.Sub(t1))/1e3)
		t3 := time.Now()
		g.Jobs()
		snap = append(snap, float64(time.Since(t3))/1e3)
	}
	n := float64(len(submit))
	r.set("galaxy.submit_us", sum(submit)/n)
	r.set("galaxy.run_us", sum(run)/n)
	r.set("galaxy.jobs_snapshot_us", medianOf(snap))
	return nil
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// defaultDatasets generates the three datasets gyan-server registers.
func defaultDatasets(seed uint64) (map[string]any, error) {
	reads, err := workload.AlzheimersNFL(seed)
	if err != nil {
		return nil, err
	}
	small, err := workload.AcinetobacterPittii(seed)
	if err != nil {
		return nil, err
	}
	large, err := workload.KlebsiellaPneumoniae(seed)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"alzheimers_nfl": reads, "acinetobacter_pittii": small, "klebsiella_pneumoniae_ksb2": large,
	}, nil
}
