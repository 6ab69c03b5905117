package experiments

import (
	"fmt"
	"sort"
	"time"

	"gyan/internal/galaxy"
	"gyan/internal/report"
	"gyan/internal/sched"
	"gyan/internal/workload"
)

func init() {
	register("sched-backfill",
		"Batch scheduling: greedy dispatch vs FIFO gangs vs conservative backfill on one arrival trace",
		runSchedBackfill)
}

// schedTraceJob is one arrival of the scheduling trace.
type schedTraceJob struct {
	at   time.Duration
	opts galaxy.SubmitOptions
	// params tunes the racon cost model so job lengths differ.
	params map[string]string
}

// schedTrace builds the arrival trace all three dispatch modes replay: a
// 1-GPU job pinned to device 0, a large 2-GPU job arriving just behind it
// (head-of-line blocked until the whole cluster is free), and a Poisson tail
// of short 1-GPU jobs that a backfilling scheduler can slide past the
// blocked gang. The pins matter: greedy dispatch finds device 0 busy when
// the two-device request arrives and diverts it onto device 1 alone, so the
// trace's biggest job runs at half width under greedy while the scheduler
// modes hold it for its full gang.
func schedTrace(seed uint64) ([]schedTraceJob, error) {
	trace := []schedTraceJob{
		{
			at:     0,
			params: map[string]string{"scale": "0.01"},
			opts:   galaxy.SubmitOptions{GPURequest: "0", EstRuntime: 3 * time.Second},
		},
		{
			at:     500 * time.Millisecond,
			params: map[string]string{"scale": "0.1"},
			// The version-tag pin to both devices doubles as the gang
			// size under the scheduler and as the explicit device
			// request under greedy dispatch.
			opts: galaxy.SubmitOptions{GPURequest: "0,1", EstRuntime: 12 * time.Second},
		},
	}
	tail, err := workload.PoissonArrivals(seed, 3.0, 6)
	if err != nil {
		return nil, err
	}
	for _, at := range tail {
		trace = append(trace, schedTraceJob{
			at:     800*time.Millisecond + at,
			params: map[string]string{"scale": "0.003"},
			opts:   galaxy.SubmitOptions{EstRuntime: time.Second},
		})
	}
	sort.SliceStable(trace, func(i, j int) bool { return trace[i].at < trace[j].at })
	return trace, nil
}

// runSchedBackfill replays one arrival trace under three dispatch modes and
// compares makespan and sojourn (arrival to completion). Greedy dispatch
// starts every job immediately, so its queue wait is zero, but it cannot
// hold devices back: the 2-GPU request arrives while device 0 is pinned and
// gets diverted onto device 1 alone, running at half width, and the short
// tail pays co-residency kernel contention on top. The scheduler modes
// grant exclusive device gangs; FIFO holds everything behind the blocked
// 2-GPU gang, while conservative backfill slides the short jobs through
// without delaying the gang's reservation.
func runSchedBackfill(opt Options) (*Result, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	trace, err := schedTrace(opt.Seed)
	if err != nil {
		return nil, err
	}

	res := newResult("sched-backfill", "Dispatch modes on one arrival trace")
	tb := report.NewTable(
		fmt.Sprintf("%d arrivals (1 long, 1 two-GPU gang, %d short) by dispatch mode", len(trace), len(trace)-2),
		"mode", "makespan", "mean sojourn", "p99 sojourn", "mean gpu queue wait", "backfills")

	modes := []struct {
		name string
		opts []galaxy.Option
	}{
		{"greedy", nil},
		{"fifo-gang", []galaxy.Option{galaxy.WithScheduler(sched.New(sched.Config{}))}},
		{"backfill", []galaxy.Option{galaxy.WithScheduler(sched.New(sched.Config{Backfill: true}))}},
	}
	for _, mode := range modes {
		g := galaxy.New(nil, mode.opts...)
		if err := g.RegisterDefaultTools(); err != nil {
			return nil, err
		}
		jobs := make([]*galaxy.Job, len(trace))
		for i, tj := range trace {
			o := tj.opts
			o.Delay = tj.at
			jobs[i], err = g.Submit("racon", tj.params, rs, o)
			if err != nil {
				return nil, err
			}
		}
		g.Run()

		var makespan, sum time.Duration
		sojourns := make([]time.Duration, len(jobs))
		for i, j := range jobs {
			if j.State != galaxy.StateOK {
				return nil, fmt.Errorf("sched-backfill: job %d failed under %s: %s", j.ID, mode.name, j.Info)
			}
			sojourns[i] = j.Finished - trace[i].at
			sum += sojourns[i]
			if j.Finished > makespan {
				makespan = j.Finished
			}
		}
		sort.Slice(sojourns, func(i, k int) bool { return sojourns[i] < sojourns[k] })
		p99 := sojourns[(len(sojourns)*99+99)/100-1]
		mean := sum / time.Duration(len(jobs))

		m := g.SchedulerMetrics()
		tb.AddRow(mode.name, report.Seconds(makespan), report.Seconds(mean),
			report.Seconds(p99), report.Seconds(m.MeanWait()), fmt.Sprintf("%d", m.Backfilled))
		key := mode.name
		res.Metrics["makespan_"+key] = makespan.Seconds()
		res.Metrics["mean_sojourn_"+key] = mean.Seconds()
		res.Metrics["p99_sojourn_"+key] = p99.Seconds()
		res.Metrics["mean_qwait_"+key] = m.MeanWait().Seconds()
		res.Metrics["p99_qwait_"+key] = m.P99Wait().Seconds()
		res.Metrics["backfills_"+key] = float64(m.Backfilled)
	}
	res.Tables = append(res.Tables, tb)
	res.Text = append(res.Text,
		"Greedy dispatch starts everything immediately, but it finds device 0 held by the pinned job when the 2-GPU request arrives and diverts the trace's biggest job onto one device — it runs at half width, and the short tail pays co-residency contention on top: worst makespan and P99 sojourn. FIFO gangs grant the full 2-GPU gang but serialize the short tail behind it while it blocks. Conservative backfill keeps the gang's reservation intact and slides the short jobs through the free device — lowest makespan, P99 sojourn and mean queue wait, without starving the gang.")
	return res, nil
}
