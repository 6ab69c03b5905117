package main

import (
	"fmt"
	"time"

	"gyan/internal/galaxy"
	"gyan/internal/journal"
	"gyan/internal/sched"
	"gyan/internal/toolxml"
)

// Virtual runtimes of the stub tools. Two GPUs at 400ms per job serve 5 GPU
// jobs per virtual second against 3.6 arriving (90% of one job per 250ms),
// so the scheduler queue stays shallow while jobs arrive and is deep only
// when crash_recover requeues a backlog at one instant.
const (
	stubGPURuntime = 400 * time.Millisecond
	stubCPURuntime = 50 * time.Millisecond
	arrivalGap     = 250 * time.Millisecond
)

// journalOptions is the one journal configuration production wiring uses
// (gyan-server and cluster.New): sharded, adaptive group commit, durable
// submit acknowledgements.
func journalOptions() journal.Options {
	return journal.Options{
		DurableSubmits: true, GroupCommit: true,
		Shards: journal.DefaultShards, Adaptive: true,
	}
}

// engine is one in-process Galaxy with its journal, wired the way a
// gyan-server cluster member wires it: production journal options and the
// batch scheduler with backfill.
type engine struct {
	g *galaxy.Galaxy
	j *journal.Journal
}

func newEngine(dir, handler string, tools func(*galaxy.Galaxy) error) (*engine, error) {
	j, err := journal.Open(dir, journalOptions())
	if err != nil {
		return nil, fmt.Errorf("open journal %s: %w", dir, err)
	}
	g := galaxy.New(nil,
		galaxy.WithScheduler(sched.New(sched.Config{Backfill: true})),
		galaxy.WithJournal(j, handler))
	if err := tools(g); err != nil {
		_ = j.Crash() // release the directory lock; nothing durable is owed yet
		return nil, err
	}
	return &engine{g: g, j: j}, nil
}

// registerStubTools binds racon's and seqstats' real wrapper XML to
// executors that return a fixed virtual runtime and compute nothing, so the
// orchestration layers carry the whole cost of a job.
func registerStubTools(g *galaxy.Galaxy) error {
	raconXML, err := toolxml.RaconGPUTool()
	if err != nil {
		return err
	}
	if err := g.RegisterTool(&galaxy.ToolBinding{
		XML: raconXML, Exec: stubExecutor("stub polish", stubGPURuntime),
		ProcNameGPU: "/usr/bin/racon_gpu", ProcNameCPU: "/usr/bin/racon",
	}); err != nil {
		return err
	}
	statsXML, err := toolxml.ParseCached(toolxml.CPUOnlyToolXML)
	if err != nil {
		return err
	}
	return g.RegisterTool(&galaxy.ToolBinding{
		XML: statsXML, Exec: stubExecutor("stub stats", stubCPURuntime),
		ProcNameGPU: "/usr/bin/seqstats", ProcNameCPU: "/usr/bin/seqstats",
	})
}

func stubExecutor(output string, total time.Duration) galaxy.Executor {
	res := galaxy.ExecResult{Output: output, Total: total}
	return func(galaxy.ExecRequest) (*galaxy.ExecResult, error) {
		r := res
		return &r, nil
	}
}

// hookExecutors wraps the named tools' executors through the public binding
// (Tool returns the live binding, whose Exec field is the seam): before runs
// ahead of the executor, and the function it returns runs after it.
func hookExecutors(g *galaxy.Galaxy, ids []string, before func(id string, req galaxy.ExecRequest) (after func())) error {
	for _, id := range ids {
		b, err := g.Tool(id)
		if err != nil {
			return err
		}
		inner, id := b.Exec, id
		b.Exec = func(req galaxy.ExecRequest) (*galaxy.ExecResult, error) {
			after := before(id, req)
			res, err := inner(req)
			after()
			return res, err
		}
	}
	return nil
}

// wrapExecutors records a span around every run of the named tools. parent
// is the span the engine runs tools under.
func wrapExecutors(g *galaxy.Galaxy, ids []string, tr *tracer, parent string) error {
	return hookExecutors(g, ids, func(id string, req galaxy.ExecRequest) func() {
		return tr.start("tools.exec."+id, parent, req.PID).end
	})
}
