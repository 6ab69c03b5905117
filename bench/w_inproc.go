package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gyan/internal/galaxy"
	"gyan/internal/journal"
	"gyan/internal/tools/racon"
	"gyan/internal/toolxml"
	"gyan/internal/workload"
)

// jobKind is one entry of an in-process workload's mix.
type jobKind struct {
	tool   string
	params map[string]string
	share  float64
}

var burstMix = []jobKind{
	{tool: "racon", params: map[string]string{"scale": "0.004"}, share: 0.9},
	{tool: "seqstats", share: 0.1},
}

var drainMix = []jobKind{
	{tool: "racon", params: map[string]string{"scale": "0.004"}, share: 0.45},
	{tool: "racon", params: map[string]string{"scale": "0.008"}, share: 0.45},
	{tool: "seqstats", share: 0.10},
}

// toolIDs lists the distinct tools of a mix, in mix order.
func toolIDs(mix []jobKind) []string {
	var out []string
	seen := map[string]bool{}
	for _, k := range mix {
		if !seen[k.tool] {
			seen[k.tool] = true
			out = append(out, k.tool)
		}
	}
	return out
}

func shares(mix []jobKind) []float64 {
	out := make([]float64, len(mix))
	for i, k := range mix {
		out[i] = k.share
	}
	return out
}

// tinyReadSet is the read set of the cluster-scaling experiment: the
// consensus input is minimal, so one polish costs a few milliseconds of real
// POA while its modelled runtime stays near a second. Like the server's
// datasets it is generated from a fixed seed: the workload seed orders the
// mix, it does not change how much work a polish is.
func tinyReadSet() (*workload.ReadSet, error) {
	return workload.GenerateLongReads(workload.LongReadConfig{
		Name: "bench_reads", Seed: 42, RefLen: 240, ReadLen: 80, Coverage: 2,
		SubRate: 0.02, InsRate: 0.03, DelRate: 0.03, BackboneErrorRate: 0.04,
		NominalBytes: 17 << 30,
	})
}

// submitAll pushes n sync-durable submits from c submitters. Submit i
// arrives i*arrivalGap into virtual time. It returns each submit's latency
// by index and each acknowledgement's offset from the start, in
// acknowledgement order.
func submitAll(g *galaxy.Galaxy, c, n int, kinds []int, mix []jobKind, dataset any, tr *tracer) (lat, done []time.Duration, err error) {
	lat = make([]time.Duration, n)
	done = make([]time.Duration, n)
	var next, acked atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	phase := tr.start("loadgen.submit_phase", "loadgen.round", 0)
	tr.setWidth("loadgen.submit_phase", c)
	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for firstErr.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				k := mix[kinds[i]]
				sp := tr.start("galaxy.submit", "loadgen.submit_phase", i+1)
				t0 := time.Now()
				_, err := g.Submit(k.tool, k.params, dataset, galaxy.SubmitOptions{
					Delay: time.Duration(i) * arrivalGap, DatasetName: "reads", User: "bench",
				})
				end := time.Now()
				sp.end()
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				lat[i] = end.Sub(t0)
				done[acked.Add(1)-1] = end.Sub(start)
			}
		}()
	}
	wg.Wait()
	phase.end()
	if e := firstErr.Load(); e != nil {
		return nil, nil, fmt.Errorf("submit: %w", *e)
	}
	return lat, done, nil
}

// startWatch notes when each job enters its tool's executor. While an engine
// drains, the gap between two consecutive entries is what one more job costs
// it — scheduling cycle, device survey, mapping, command rendering, journal
// staging and the tool itself — and involves no wait for the disk, which a
// submit acknowledgement is mostly made of. The engine runs tools inline on
// the draining goroutine, one at a time, so the series needs no lock.
type startWatch struct{ at []time.Time }

func watchStarts(g *galaxy.Galaxy, tools []string) (*startWatch, error) {
	w := &startWatch{}
	err := hookExecutors(g, tools, func(string, galaxy.ExecRequest) func() {
		w.at = append(w.at, time.Now())
		return func() {}
	})
	return w, err
}

func (w *startWatch) gaps() []time.Duration {
	if len(w.at) < 2 {
		return nil
	}
	out := make([]time.Duration, len(w.at)-1)
	for i := range out {
		out[i] = w.at[i+1].Sub(w.at[i])
	}
	return out
}

// drain runs the engine to completion. Traced, it steps the engine itself
// so events can be counted; Engine.Run is the same loop.
func drain(g *galaxy.Galaxy, tr *tracer) (makespan time.Duration, events int) {
	phase := tr.start("loadgen.drain_phase", "loadgen.round", 0)
	sp := tr.start("galaxy.run", "loadgen.drain_phase", 0)
	if tr == nil {
		makespan = g.Run()
	} else {
		for g.Engine.Step() {
			events++
		}
		makespan = g.Engine.Clock().Now()
	}
	sp.end()
	phase.end()
	return makespan, events
}

// dispatchSpec is what dispatch_burst and batch_drain differ in.
type dispatchSpec struct {
	name string
	jobs int
	// submitters push the measured submits. Job IDs are handed out in the
	// order submitters reach the engine, and seniority follows the ID: over a
	// deep queue of jobs of unequal length two racing submitters can swap a
	// pair and move the modelled makespan by milliseconds, so the workload
	// whose queue is deep submits from one.
	submitters int
	mix        []jobKind
	tools      func(*galaxy.Galaxy) error
	// dataset builds the input during set-up.
	dataset func() (any, error)
}

func burstSpec(sz sizes, submitters int) dispatchSpec {
	return dispatchSpec{name: "dispatch_burst", jobs: sz.BurstJobs, submitters: submitters, mix: burstMix, tools: registerStubTools,
		dataset: func() (any, error) { return struct{}{}, nil }}
}

func drainSpec(sz sizes) dispatchSpec {
	return dispatchSpec{name: "batch_drain", jobs: sz.DrainJobs, submitters: 1, mix: drainMix,
		tools:   (*galaxy.Galaxy).RegisterDefaultTools,
		dataset: func() (any, error) { return tinyReadSet() }}
}

// dispatchRound is one round of the in-process orchestration path: build an
// engine, warm it with a tenth of the jobs again (submitted and drained: the
// caches fill, the journal's segments exist, the heap has grown), then submit
// everything durably from c submitters, drain, verify. The warm-up belongs to
// the round's set-up.
func dispatchRound(e *env, spec dispatchSpec, seed uint64, tr *tracer) (*round, error) {
	r := &round{attempted: spec.jobs}
	xmlHits0, xmlMiss0 := toolxml.CacheStats()
	t0 := time.Now()
	dir, err := e.tempDir(spec.name)
	if err != nil {
		return nil, err
	}
	dataset, err := spec.dataset()
	if err != nil {
		return nil, err
	}
	en, err := newEngine(dir, "bench", spec.tools)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	forget := e.clean.add(func() { _ = en.j.Crash() })
	defer forget()
	defer en.j.Crash() // releases the directory on an early return; a no-op once closed
	tools := toolIDs(spec.mix)
	if tr != nil {
		if err := wrapExecutors(en.g, tools, tr, "galaxy.run"); err != nil {
			return nil, err
		}
	}
	starts, err := watchStarts(en.g, tools)
	if err != nil {
		return nil, err
	}
	fs := watchFsyncs(en)
	warm := spec.jobs / 10
	kinds := decks(seed, shares(spec.mix), warm, spec.jobs)
	if tr != nil {
		tr.paused.Store(true)
	}
	if _, _, err := submitAll(en.g, 1, warm, kinds, spec.mix, dataset, tr); err != nil {
		return nil, err
	}
	en.g.Run()
	starts.at = nil
	if tr != nil {
		tr.paused.Store(false)
	}
	kinds = kinds[warm:]
	r.setup = time.Since(t0)

	heap0 := localHeap(true)
	cpu0 := selfCPU()
	root := tr.start("loadgen.round", "", 0)
	start := time.Now()
	lat, done, err := submitAll(en.g, spec.submitters, spec.jobs, kinds, spec.mix, dataset, tr)
	if err != nil {
		return nil, err
	}
	submitWall := time.Since(start)
	makespan, events := drain(en.g, tr)
	both := time.Since(start)
	root.end()
	// jobs_per_s counts the drain alone. A sync-durable submit is one wait
	// for the sandbox's disk and nothing else (ten unchanged runs spread the
	// submit phase between 110 and 560us per job while the drain moved by a
	// tenth); what the submit phase costs is reported as acks_per_s and
	// ack_p50_us, ungated. CPU is counted over both phases.
	r.wall = both - submitWall
	r.cpu = selfCPU() - cpu0
	heap1 := localHeap(true)
	r.lat, r.makespan = starts.gaps(), makespan

	n := float64(spec.jobs)
	r.set("acks_per_s", sliceRate(done))
	r.set("ack_p50_us", durationSeries(lat, time.Microsecond).median())
	r.set("alloc_kb_per_job", (heap1.totalAlloc-heap0.totalAlloc)/1024/n)
	r.set("live_kb_per_job", (heap1.heapAlloc-heap0.heapAlloc)/1024/n)
	r.set("server.gc_pause_ms", (heap1.pauseNS-heap0.pauseNS)/1e6)
	r.set("loadgen.submit_share", submitWall.Seconds()/both.Seconds())
	r.set("sim.events_per_job", float64(events)/n)
	engineCounts(r, en, n+float64(warm))
	fs.fold(r)
	xmlHits1, xmlMiss1 := toolxml.CacheStats()
	if d := float64(xmlHits1 - xmlHits0 + xmlMiss1 - xmlMiss0); d > 0 {
		r.set("toolxml.cache_hit_ratio", float64(xmlHits1-xmlHits0)/d)
	}

	tSnap := time.Now()
	jobs := en.g.Jobs()
	r.set("galaxy.jobs_snapshot_us", float64(time.Since(tSnap))/1e3)
	r.jobs, r.failed, err = verifyJobs(jobs, warm+spec.jobs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	r.jobs -= warm
	if err := en.j.Close(); err != nil {
		return nil, fmt.Errorf("%s: close journal: %w", spec.name, err)
	}
	return r, nil
}

// engineCounts reads the public counters of an engine after a run: journal
// write-side stats, scheduler cycles and depth, survey cache.
func engineCounts(r *round, en *engine, n float64) {
	st := en.j.Stats()
	r.set("journal.fsyncs_per_job", float64(st.Syncs)/n)
	r.set("journal.records_per_job", float64(st.Appends)/n)
	r.set("journal.bytes_per_job", float64(st.Bytes)/n)
	sm := en.g.SchedulerMetrics()
	r.set("sched.queue_depth_max", float64(sm.MaxDepth()))
	hits, misses, _ := en.g.SurveyCacheStats()
	r.set("smi.surveys_per_job", float64(hits+misses)/n)
	if hits+misses > 0 {
		r.set("smi.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	// The engine surveys once to map each job and once per scheduler cycle,
	// and exposes no cycle counter: cycles are the surveys beyond one per job.
	if cycles := float64(hits+misses) - n; cycles > 0 {
		r.set("sched.cycles_per_job", cycles/n)
	}
}

// fsyncWatch records every journal fsync through the public observer hook,
// forwarding to the engine's own observer so /metrics stays truthful.
type fsyncWatch struct {
	mu      sync.Mutex
	took    []time.Duration
	records []int
}

func watchFsyncs(en *engine) *fsyncWatch {
	w := &fsyncWatch{}
	ob := en.g.Observer()
	en.j.SetSyncObserver(func(records int, took time.Duration) {
		ob.ObserveFsync(records, took)
		w.mu.Lock()
		w.took = append(w.took, took)
		w.records = append(w.records, records)
		w.mu.Unlock()
	})
	return w
}

func (w *fsyncWatch) fold(r *round) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.took) == 0 {
		return
	}
	recs := 0
	for _, n := range w.records {
		recs += n
	}
	r.set("journal.fsync_us", durationSeries(w.took, time.Microsecond).median())
	r.set("journal.records_per_fsync", float64(recs)/float64(len(w.records)))
}

// verifyJobs is the correctness gate shared by the in-process workloads:
// every job ok exactly once, GPU placements carry CUDA_VISIBLE_DEVICES,
// containerised ones a --gpus launch command, and every polish of the one
// read set reaches the same consensus whatever its scale or placement.
func verifyJobs(jobs []*galaxy.Job, want int) (ok, failed int, err error) {
	if len(jobs) != want {
		return 0, want, fmt.Errorf("engine holds %d jobs, want %d", len(jobs), want)
	}
	seen := make(map[int]bool, len(jobs))
	var polish *racon.Result
	for _, j := range jobs {
		if seen[j.ID] {
			return 0, want, fmt.Errorf("job %d listed twice", j.ID)
		}
		seen[j.ID] = true
		cerr := checkJob(j)
		if res, isRacon := resultDetail(j).(*racon.Result); cerr == nil && isRacon {
			if polish == nil {
				polish = res
			}
			if res.PolishedIdentity != polish.PolishedIdentity || res.PolishedIdentity < 0.9 {
				cerr = fmt.Errorf("polished identity %.6f, first polish reached %.6f", res.PolishedIdentity, polish.PolishedIdentity)
			}
		}
		if cerr != nil {
			failed++
			if err == nil {
				err = fmt.Errorf("job %d (%s): %w", j.ID, j.ToolID, cerr)
			}
			continue
		}
		ok++
	}
	return ok, failed, err
}

func resultDetail(j *galaxy.Job) any {
	if j.Result == nil {
		return nil
	}
	return j.Result.Detail
}

func checkJob(j *galaxy.Job) error {
	if j.State != galaxy.StateOK {
		return fmt.Errorf("state %q: %s", j.State, j.Info)
	}
	if j.GPUEnabled && j.VisibleDevices == "" {
		return fmt.Errorf("GPU placement without CUDA_VISIBLE_DEVICES")
	}
	if j.Runtime == "docker" && j.GPUEnabled && !strings.Contains(strings.Join(j.ContainerCommand, " "), "--gpus") {
		return fmt.Errorf("docker GPU job without --gpus: %v", j.ContainerCommand)
	}
	return nil
}

// checkPolishQuality is racon's output gate. The read set batch_drain times
// is too shallow (six reads) for a polish to beat its draft on every seed,
// so the gate polishes one read set deep enough that it must.
func checkPolishQuality() error {
	rs, err := workload.GenerateLongReads(workload.LongReadConfig{
		Name: "gate_reads", Seed: 42, RefLen: 600, ReadLen: 200, Coverage: 8,
		SubRate: 0.02, InsRate: 0.03, DelRate: 0.03, BackboneErrorRate: 0.04,
		NominalBytes: 17 << 30,
	})
	if err != nil {
		return err
	}
	res, err := racon.Run(rs, racon.DefaultParams(), racon.Env{ProcName: "/usr/bin/racon"})
	if err != nil {
		return err
	}
	if !(res.PolishedIdentity > res.DraftIdentity) {
		return fmt.Errorf("racon did not improve its draft: identity %.4f -> %.4f", res.DraftIdentity, res.PolishedIdentity)
	}
	return nil
}

// crashRound is one round of crash_recover: fill a journal with sync-acked
// submits, run half the arrival span, crash with a torn tail, then replay,
// reopen, recover, drain and compact. The measured phase is recover+drain.
func crashRound(e *env, sz sizes, seed uint64, tr *tracer) (*round, error) {
	n := sz.CrashJobs
	r := &round{attempted: n}
	t0 := time.Now()
	dir, err := e.tempDir("crash_recover")
	if err != nil {
		return nil, err
	}
	a, err := newEngine(dir, "bench", registerStubTools)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	forgetA := e.clean.add(func() { _ = a.j.Crash() })

	kinds := deck(seed, n, shares(burstMix))
	lat, _, err := submitAll(a.g, e.submit, n, kinds, burstMix, struct{}{}, nil)
	if err != nil {
		forgetA()
		return nil, err
	}
	a.g.Engine.RunUntil(time.Duration(n) * arrivalGap / 2)
	// The torn header claims a 64-byte record and delivers three bytes of it.
	err = a.j.CrashTorn([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe})
	forgetA()
	if err != nil {
		return nil, fmt.Errorf("crash_recover: crash: %w", err)
	}
	// The life before the crash is this workload's set-up: it makes the
	// journal the measured phase recovers from.
	r.setup = time.Since(t0)

	heap0 := localHeap(true)
	cpu0 := selfCPU()
	root := tr.start("loadgen.round", "", 0)
	start := time.Now()
	rec := tr.start("loadgen.recover_phase", "loadgen.round", 0)
	sp := tr.start("journal.replay", "loadgen.recover_phase", 0)
	recs, rerr := journal.Replay(dir)
	sp.end()
	replayTook := time.Since(start)
	sp = tr.start("journal.open", "loadgen.recover_phase", 0)
	tOpen := time.Now()
	b, err := newEngine(dir, "bench", registerStubTools)
	openTook := time.Since(tOpen)
	sp.end()
	if err != nil {
		return nil, err
	}
	forgetB := e.clean.add(func() { _ = b.j.Crash() })
	defer forgetB()
	defer b.j.Crash() // releases the directory on an early return; a no-op once closed
	tools := toolIDs(burstMix)
	if tr != nil {
		if err := wrapExecutors(b.g, tools, tr, "galaxy.run"); err != nil {
			return nil, err
		}
	}
	starts, err := watchStarts(b.g, tools)
	if err != nil {
		return nil, err
	}
	sp = tr.start("galaxy.recover", "loadgen.recover_phase", 0)
	tRec := time.Now()
	rep, err := b.g.Recover(recs, rerr, galaxy.RecoverOptions{
		Datasets: map[string]any{"reads": struct{}{}}, RestartDelay: time.Second, AdoptExpired: true,
	})
	recoverTook := time.Since(tRec)
	sp.end()
	rec.end()
	if err != nil {
		return nil, fmt.Errorf("crash_recover: recover: %w", err)
	}
	recoverWall := time.Since(start)
	makespan, events := drain(b.g, tr)
	r.wall = time.Since(start)
	root.end()
	r.cpu = selfCPU() - cpu0
	heap1 := localHeap(true)
	r.lat = starts.gaps()
	// The drain's makespan hangs on which completions were durable at the
	// crash, which is a race by design: it is reported, not gated.
	r.set("makespan_s", makespan.Seconds())

	requeued := float64(rep.Requeued)
	r.set("recover_ms", float64(recoverWall)/1e6)
	r.set("galaxy.recover_ms", float64(recoverTook)/1e6)
	r.set("journal.open_ms", float64(openTook)/1e6)
	if len(recs) > 0 {
		r.set("journal.replay_us_per_record", float64(replayTook)/1e3/float64(len(recs)))
	}
	r.set("alloc_kb_per_job", (heap1.totalAlloc-heap0.totalAlloc)/1024/requeued)
	r.set("live_kb_per_job", (heap1.heapAlloc-heap0.heapAlloc)/1024/requeued)
	r.set("ack_p50_us", durationSeries(lat, time.Microsecond).median())
	r.set("sim.events_per_job", float64(events)/requeued)
	engineCounts(r, b, requeued)

	// Gates. Every submit was acknowledged only after its fsync, so the
	// replay must hold all n; what had not durably completed is requeued,
	// in seniority order, and completes exactly once.
	if rep.CorruptTail == "" {
		return nil, fmt.Errorf("crash_recover: the torn tail was not detected")
	}
	jobs := b.g.Jobs()
	r.jobs, r.failed, err = verifyJobs(jobs, n)
	if err != nil {
		return nil, fmt.Errorf("crash_recover: lost or failed acknowledged submits: %w", err)
	}
	if rep.Requeued != n-rep.Completed || rep.Errored+rep.DeadLettered+rep.Orphaned+rep.Failed != 0 {
		return nil, fmt.Errorf("crash_recover: requeued %d of %d with %d durably complete (errored %d, dead %d, orphaned %d, failed %d)",
			rep.Requeued, n, rep.Completed, rep.Errored, rep.DeadLettered, rep.Orphaned, rep.Failed)
	}
	requeuedIDs := map[int]bool{}
	for _, rj := range rep.Jobs {
		if rj.Action == "requeued" {
			requeuedIDs[rj.ID] = true
		}
	}
	if err := checkSeniority(jobs, requeuedIDs); err != nil {
		return nil, fmt.Errorf("crash_recover: %w", err)
	}
	if err := b.j.Sync(); err != nil {
		return nil, err
	}
	final, ferr := journal.Replay(dir)
	if _, torn := ferr.(*journal.CorruptRecordError); ferr != nil && !torn {
		return nil, fmt.Errorf("crash_recover: audit replay: %w", ferr)
	}
	completes := map[int]int{}
	for _, rc := range final {
		if rc.Type == journal.TypeComplete && rc.State == string(galaxy.StateOK) {
			completes[rc.Job]++
		}
	}
	for id, c := range completes {
		if c != 1 {
			return nil, fmt.Errorf("crash_recover: job %d has %d durable ok completions", id, c)
		}
	}
	if len(completes) != n {
		return nil, fmt.Errorf("crash_recover: %d jobs durably complete, want %d", len(completes), n)
	}
	r.jobs = rep.Requeued

	sp = tr.start("journal.snapshot", "", 0)
	tSnap := time.Now()
	err = b.g.SnapshotJournal()
	r.set("journal.snapshot_ms", float64(time.Since(tSnap))/1e6)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("crash_recover: snapshot: %w", err)
	}
	if err := b.j.Close(); err != nil {
		return nil, fmt.Errorf("crash_recover: close journal: %w", err)
	}
	return r, nil
}

// checkSeniority asserts that no requeued scheduler-managed job started
// before one senior to it: recovery requeues at one instant, so the only
// thing that may order the backlog is the job ID it had before the crash.
func checkSeniority(jobs []*galaxy.Job, requeued map[int]bool) error {
	var gpu []*galaxy.Job
	for _, j := range jobs {
		if requeued[j.ID] && j.GPUEnabled {
			gpu = append(gpu, j)
		}
	}
	sort.Slice(gpu, func(i, k int) bool { return gpu[i].ID < gpu[k].ID })
	for i := 1; i < len(gpu); i++ {
		if gpu[i].Started < gpu[i-1].Started {
			return fmt.Errorf("requeued job %d started at %v, before senior job %d at %v",
				gpu[i].ID, gpu[i].Started, gpu[i-1].ID, gpu[i-1].Started)
		}
	}
	return nil
}
