package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"gyan/internal/bioseq"
	"gyan/internal/core"
	"gyan/internal/galaxy"
	"gyan/internal/gpu"
	"gyan/internal/jobconf"
	"gyan/internal/journal"
	"gyan/internal/monitor"
	"gyan/internal/obs"
	"gyan/internal/sched"
	"gyan/internal/sim"
	"gyan/internal/smi"
	"gyan/internal/tools/bonito"
	"gyan/internal/tools/racon"
	"gyan/internal/toolxml"
	"gyan/internal/transport"
	"gyan/internal/transport/tcpbus"
	"gyan/internal/workload"
)

// leafTimings times, in isolation, the layers no seam exposes from outside
// the engine: each figure is the median cost of one call into the layer's
// public functions on the inputs the workloads hand it. A layer table
// multiplies them by the workload's count per job. shallow and deep are the
// scheduler queue depths to time a cycle at.
func leafTimings(e *env, shallow, deep int) (map[string]float64, error) {
	out := map[string]float64{}
	cluster := gpu.NewPaperTestbed(nil)

	// smi: one survey is the XML query plus its parse.
	var doc string
	var usage smi.Usage
	var err error
	out["smi.survey_us"] = timeOp(300, func() {
		doc, err = smi.Query(cluster, 0)
		if err == nil {
			usage, err = smi.UsageFromXML(doc)
		}
	}) / 1e3
	if err != nil {
		return nil, fmt.Errorf("smi survey: %w", err)
	}

	// core: destination rule plus device allocation.
	tool, err := toolxml.RaconGPUTool()
	if err != nil {
		return nil, err
	}
	conf := jobconf.Default()
	mapper := &core.Mapper{}
	req, _ := tool.GPURequirement()
	out["core.map_us"] = timeOp(900, func() {
		_, err = mapper.Map(tool, conf, usage)
		if err == nil {
			_, _, err = mapper.Allocate(req, usage)
		}
	}) / 1e3
	if err != nil {
		return nil, fmt.Errorf("core map: %w", err)
	}

	// toolxml: command rendering against the evaluated param dict, and an
	// uncached wrapper parse.
	params, err := galaxy.BuildParamDict(tool, map[string]string{"scale": "0.004"}, true)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"reads", "overlaps", "target"} {
		if _, ok := params[name]; !ok {
			params[name] = name + ".dat"
		}
	}
	out["toolxml.render_us"] = timeOp(900, func() { _, err = toolxml.RenderCommand(tool.Command.Text, params) }) / 1e3
	if err != nil {
		return nil, fmt.Errorf("toolxml render: %w", err)
	}
	out["toolxml.parse_us"] = timeOp(180, func() { _, err = toolxml.Parse(toolxml.RaconToolXML) }) / 1e3
	if err != nil {
		return nil, fmt.Errorf("toolxml parse: %w", err)
	}

	out["sched.cycle_us"] = schedCycleUS(usage, shallow)
	out["sched.cycle_us_deep"] = schedCycleUS(usage, deep)

	// sim: schedule and run one no-op event.
	eng := sim.NewEngine(nil)
	out["sim.event_ns"] = timeOp(90000, func() {
		eng.After(time.Millisecond, func(time.Duration) {})
		eng.Step()
	})

	// obs: one lifecycle transition, and the exposition of a registry that
	// has seen traffic.
	ob := obs.NewObserver()
	job := 0
	out["obs.transition_ns"] = timeOp(45000, func() {
		job++
		ob.Transition(journal.Record{Type: journal.TypeSubmit, Job: job, Tool: "racon"})
		ob.Transition(journal.Record{Type: journal.TypeComplete, Job: job, State: "ok"})
	}) / 2
	out["obs.scrape_ms"] = timeOp(45, func() { err = ob.Reg.WritePrometheus(io.Discard) }) / 1e6
	if err != nil {
		return nil, fmt.Errorf("obs scrape: %w", err)
	}

	// monitor: one sample of every device.
	mon := monitor.New(cluster)
	at := time.Duration(0)
	out["monitor.sample_us"] = timeOp(9000, func() {
		at += time.Second
		mon.SampleNow(at)
	}) / 1e3

	if err := toolKernels(out); err != nil {
		return nil, err
	}
	if err := journalTimings(e, out); err != nil {
		return nil, err
	}
	if err := tcpbusTimings(out); err != nil {
		return nil, err
	}
	return out, nil
}

// schedCycleUS times one scheduler cycle over a queue of the given depth
// with every device held, so the cycle orders the queue, plans the head's
// reservation and starts nothing: the cost a backlog adds to every event.
func schedCycleUS(usage smi.Usage, depth int) float64 {
	if depth < 1 {
		depth = 1
	}
	s := sched.New(sched.Config{Backfill: true})
	for i := 0; i < len(usage.AllGPUs); i++ {
		_ = s.Submit(sched.Request{ID: i + 1, User: "bench", GPUs: 1}, 0)
	}
	s.Cycle(0, usage) // the first jobs take the devices
	for i := 0; i < depth; i++ {
		_ = s.Submit(sched.Request{ID: 100 + i, User: "bench", GPUs: 1, Submitted: time.Duration(i + 1)}, time.Duration(i+1))
	}
	n := 900
	if depth > 200 {
		n = 90
	}
	return timeOp(n, func() { s.Cycle(time.Second, usage) }) / 1e3
}

// toolKernels times the tools' inner loops on the workloads' inputs.
func toolKernels(out map[string]float64) error {
	rs, err := tinyReadSet()
	if err != nil {
		return err
	}
	mappings, _, err := racon.MapReads(rs.Backbone, rs.Reads, racon.DefaultK)
	if err != nil {
		return err
	}
	windows, err := racon.BuildWindows(rs.Backbone, rs.Reads, mappings, racon.DefaultParams().WindowLen)
	if err != nil {
		return err
	}
	if len(windows) == 0 {
		return fmt.Errorf("racon: the tiny read set builds no windows")
	}
	scores := bioseq.DefaultScores()
	i := 0
	out["tools.racon_window_us"] = timeOp(90, func() {
		_, _, err = racon.PolishWindow(windows[i%len(windows)], scores, 0)
		i++
	}) / 1e3
	if err != nil {
		return fmt.Errorf("racon window: %w", err)
	}
	a, b := rs.Reads[0].Bases, rs.Reads[1].Bases
	out["tools.edit_distance_us"] = timeOp(900, func() { bioseq.EditDistance(a, b) }) / 1e3

	squiggles, err := workload.AcinetobacterPittii(42)
	if err != nil {
		return err
	}
	net, err := bonito.NewPretrained()
	if err != nil {
		return err
	}
	i = 0
	out["tools.bonito_read_ms"] = timeOp(45, func() {
		_, _, err = net.Basecall(squiggles.Squiggles[i%len(squiggles.Squiggles)])
		i++
	}) / 1e6
	if err != nil {
		return fmt.Errorf("bonito basecall: %w", err)
	}
	nfl, err := workload.AlzheimersNFL(42)
	if err != nil {
		return err
	}
	out["tools.seqstats_ms"] = timeOp(18, func() { bioseq.Stats(nfl.Reads) }) / 1e6
	return nil
}

// journalTimings times the journal's write side one record at a time (a
// sync append from one caller pays a whole fsync; an async append pays the
// staging only) and its read side over what those appends wrote.
func journalTimings(e *env, out map[string]float64) error {
	dir, err := e.tempDir("journal")
	if err != nil {
		return err
	}
	j, err := journal.Open(dir, journalOptions())
	if err != nil {
		return err
	}
	forget := e.clean.add(func() { _ = j.Crash() })
	defer forget()
	defer j.Crash() // releases the directory on an early return; a no-op once closed
	job := 0
	submit := func() journal.Record {
		job++
		return journal.Record{Type: journal.TypeSubmit, Job: job, Tool: "racon", User: "bench",
			Handler: "bench", Params: map[string]string{"scale": "0.004"}, Dataset: "reads"}
	}
	out["journal.append_us"] = timeOp(270, func() { err = j.Append(submit()) }) / 1e3
	if err != nil {
		return fmt.Errorf("journal append: %w", err)
	}
	var tick uint64
	out["journal.append_async_ns"] = timeOp(9000, func() {
		rec := submit()
		rec.Type = journal.TypeMap // only submits wait for their fsync
		tick, err = j.AppendAsync(rec)
	})
	if err != nil {
		return fmt.Errorf("journal async append: %w", err)
	}
	if err := j.AwaitDurable(tick); err != nil {
		return fmt.Errorf("journal await: %w", err)
	}
	if err := j.Close(); err != nil {
		return err
	}
	var recs []journal.Record
	replayNS := timeOp(9, func() { recs, err = journal.Replay(dir) })
	if err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	out["journal.replay_us_per_record"] = replayNS / 1e3 / float64(len(recs))
	return nil
}

// benchPing is the body of the messages tcpbusTimings exchanges. The bus
// drops bodies whose type the codec does not know.
type benchPing struct{ N int }

const msgBenchPing = "bench-ping"

func init() { transport.RegisterBody(msgBenchPing, benchPing{}) }

// tcpbusTimings runs a loopback pair of bus endpoints: the round trip of
// one message (Send to the peer's Receive and back) and the one-way rate
// the pair sustains.
func tcpbusTimings(out map[string]float64) error {
	addrA, err := freeAddr()
	if err != nil {
		return err
	}
	addrB, err := freeAddr()
	if err != nil {
		return err
	}
	peers := map[string]string{"a": addrA, "b": addrB}
	a, err := tcpbus.New(tcpbus.Options{Self: "a", Listen: addrA, Peers: peers})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := tcpbus.New(tcpbus.Options{Self: "b", Listen: addrB, Peers: peers})
	if err != nil {
		return err
	}
	defer b.Close()

	recv := func(bus *tcpbus.Bus, self string, want int, timeout time.Duration) int {
		got := 0
		deadline := time.Now().Add(timeout)
		for got < want && time.Now().Before(deadline) {
			got += len(bus.Receive(time.Hour, self))
		}
		return got
	}
	// The first message pays the dial.
	a.Send(0, msgBenchPing, "a", "b", benchPing{})
	if recv(b, "b", 1, 5*time.Second) != 1 {
		return fmt.Errorf("tcpbus: loopback pair did not connect")
	}
	b.Send(0, msgBenchPing, "b", "a", benchPing{})
	if recv(a, "a", 1, 5*time.Second) != 1 {
		return fmt.Errorf("tcpbus: loopback pair did not connect back")
	}
	lost := false
	out["tcpbus.rtt_us"] = timeOp(450, func() {
		a.Send(0, msgBenchPing, "a", "b", benchPing{})
		if recv(b, "b", 1, time.Second) != 1 {
			lost = true
		}
		b.Send(0, msgBenchPing, "b", "a", benchPing{})
		if recv(a, "a", 1, time.Second) != 1 {
			lost = true
		}
	}) / 1e3
	if lost {
		return fmt.Errorf("tcpbus: a loopback message was lost")
	}
	// One-way saturation: the sender's queue is bounded (1024), so the
	// burst is paced by what the receiver drains.
	const burst = 4000
	var wg sync.WaitGroup
	wg.Add(1)
	got := 0
	t0 := time.Now()
	go func() {
		defer wg.Done()
		got = recv(b, "b", burst, 10*time.Second)
	}()
	for i := 0; i < burst; i++ {
		for a.PendingFor("b") > 512 {
			time.Sleep(50 * time.Microsecond)
		}
		a.Send(0, msgBenchPing, "a", "b", benchPing{})
	}
	wg.Wait()
	if got < burst*9/10 {
		return fmt.Errorf("tcpbus: %d of %d burst messages arrived", got, burst)
	}
	out["tcpbus.msgs_per_s"] = float64(got) / time.Since(t0).Seconds()
	return nil
}
