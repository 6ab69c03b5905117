package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// tracePass is the -trace run of one workload: an untraced round on the
// real path for the public counters, the in-process replay without and with
// spans (their difference is the tracing overhead), the isolated leaf
// timings, and the layer table those add up to. Everything runs at a
// quarter of the measured size. For the in-process workloads the real path
// and the untraced replay are the same thing.
func tracePass(e *env, w workloadDef, sz sizes, seed uint64) (map[string]metric, *round, error) {
	q := sz.quarter()
	counts, err := w.round(e, q, seed)
	if err != nil {
		return nil, nil, err
	}
	// The overhead of tracing is the replay's best rate without spans
	// against its best with them. The in-process replays are short, so they
	// alternate three times; one round's luck is not an overhead.
	reps := 3
	if w.needsServer {
		reps = 1
	}
	rate := func(r *round) float64 { return float64(r.jobs) / r.wall.Seconds() }
	var plainRate, tracedRate float64
	var tr *tracer
	var traced *round
	for i := 0; i < reps; i++ {
		plain := counts
		if w.needsServer || i > 0 {
			if plain, err = w.traced(e, q, seed, nil); err != nil {
				return nil, nil, err
			}
		}
		tr = newTracer()
		if traced, err = w.traced(e, q, seed, tr); err != nil {
			return nil, nil, err
		}
		if plain.jobs == 0 || traced.jobs == 0 || plain.wall <= 0 || traced.wall <= 0 {
			return nil, nil, fmt.Errorf("a replay completed no jobs")
		}
		plainRate, tracedRate = maxf(plainRate, rate(plain)), maxf(tracedRate, rate(traced))
	}

	got := foldExtra([]*round{counts})
	// The replay supplies what only it can see (event counts, step and
	// handshake timings); the real path's counters win where both have one.
	for k, v := range foldExtra([]*round{traced}) {
		if got[k].Value == 0 {
			got[k] = v
		}
	}
	set := func(name string, v float64, n int) { got[name] = metric{Value: v, N: n} }

	depth := int(got["sched.queue_depth_max"].Value)
	leaf, err := leafTimings(e, depth, q.CrashJobs/2)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range leaf {
		if _, measured := got[k]; !measured {
			set(k, v, 0)
		}
	}

	jobs := float64(traced.jobs)
	mean := func(name string, unit time.Duration) (float64, int) {
		d := tr.durations(name, unit)
		if len(d) == 0 {
			return 0, 0
		}
		return sum(d) / float64(len(d)), len(d)
	}
	// Tool executors, all tools together.
	var exec []float64
	for _, id := range []string{"racon", "seqstats", "bonito"} {
		exec = append(exec, tr.durations("tools.exec."+id, time.Microsecond)...)
	}
	execPerJob := 0.0
	if len(exec) > 0 {
		set("tools.exec_us", sum(exec)/float64(len(exec)), len(exec))
		execPerJob = sum(exec) / jobs
	}
	if v, n := mean("galaxy.submit", time.Microsecond); n > 0 {
		set("galaxy.submit_us", v, n)
	}
	if d := tr.durations("galaxy.run", time.Microsecond); len(d) > 0 {
		perJob := sum(d) / jobs
		set("galaxy.run_us", perJob, len(d))
		set("galaxy.dispatch_self_us", perJob-execPerJob, len(d))
	}
	if v, n := mean("api.handler", time.Microsecond); n > 0 {
		set("api.handler_us", v, n)
		if req, _ := mean("loadgen.request", time.Microsecond); req > 0 {
			set("api.http_overhead_us", req-v, n)
		}
		set("api.self_us", v-got["galaxy.submit_us"].Value-got["galaxy.run_us"].Value, n)
		set("galaxy.dispatch_self_us", got["galaxy.run_us"].Value-execPerJob, n)
	}
	if v, n := mean("cluster.submit", time.Microsecond); n > 0 {
		set("cluster.submit_us", v, n)
	}
	if _, open := got["job_p50_ms"]; !open { // http_jobs reports its open-loop phase's
		set("job_p50_ms", durationSeries(counts.lat, time.Millisecond).median(), len(counts.lat))
	}
	set("loadgen.trace_overhead_pct", 100*(plainRate-tracedRate)/plainRate, reps*traced.jobs)
	set("failed_share", float64(counts.failed+traced.failed)/float64(counts.attempted+traced.attempted), counts.attempted+traced.attempted)

	estimates(tr, w.name, got, execPerJob)
	tb := tr.table(w.name, "loadgen.round", traced.jobs)
	tb.print(e.log)
	if share := tb.unattributedShare(); share > 0.15 {
		e.logf("FLAG %s: the layer table leaves %.0f%% of wall time per job unattributed (limit 15%%)", w.name, 100*share)
	}
	if v := got["loadgen.trace_overhead_pct"].Value; v > 10 {
		e.logf("FLAG %s: tracing slowed the replay by %.1f%% (limit 10%%)", w.name, v)
	}
	if path, err := tr.write(filepath.Join("bench", "out"), tb); err != nil {
		e.logf("trace not written: %v", err)
	} else {
		e.logf("spans written to %s", path)
	}
	return got, counts, nil
}

// estimates charges the leaf layers to the spans they run inside: unit
// cost from the isolated timing times the workload's own count per job.
func estimates(tr *tracer, workload string, m map[string]metric, execPerJobUS float64) {
	v := func(name string) float64 { return m[name].Value }
	switch workload {
	case "dispatch_burst", "batch_drain", "crash_recover":
		run := "galaxy.run"
		tr.estimate("sched.cycle", run, v("sched.cycle_us")*1e3, v("sched.cycles_per_job"))
		tr.estimate("smi.survey", run, v("smi.survey_us")*1e3, v("smi.surveys_per_job")*(1-v("smi.cache_hit_ratio")))
		tr.estimate("core.map", run, v("core.map_us")*1e3, 1)
		tr.estimate("toolxml.render", run, v("toolxml.render_us")*1e3, 1)
		// Every record but the submit is staged during the drain; each is
		// also one observer transition and, roughly, one engine event.
		staged := v("journal.records_per_job") - 1
		if staged < 0 {
			staged = 0
		}
		tr.estimate("journal.append_async", run, v("journal.append_async_ns"), staged)
		tr.estimate("obs.transition", run, v("obs.transition_ns"), staged)
		tr.estimate("sim.event", run, v("sim.event_ns"), v("sim.events_per_job"))
		if workload != "crash_recover" {
			tr.estimate("journal.append_sync", "galaxy.submit", v("journal.fsync_us")*1e3, 1/maxf(v("journal.records_per_fsync"), 1))
		}
	case "http_jobs":
		h := "api.handler"
		tr.estimate("galaxy.submit", h, v("galaxy.submit_us")*1e3, 1)
		tr.estimate("galaxy.run_self", h, (v("galaxy.run_us")-execPerJobUS)*1e3, 1)
		tr.estimate("monitor.sample", h, v("monitor.sample_us")*1e3, v("monitor.samples_per_job")/2) // one call samples both devices
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// printMetrics lists metrics by name with unit and sample count.
func printMetrics(e *env, title string, declared []metricSpec, got map[string]metric) {
	e.logf("%s", title)
	for _, d := range declared {
		m, ok := got[d.Name]
		if !ok {
			continue
		}
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		e.logf("  %-34s %14.4f %-8s %s", d.Name, m.Value, d.Unit, n)
	}
}
