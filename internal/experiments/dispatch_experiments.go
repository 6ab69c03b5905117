package experiments

// The dispatch-throughput experiment measures the submit hot path itself:
// how many jobs per second the engine accepts, and what a submitter waits
// for an acknowledgement, as the number of concurrent submitters grows.
// Three modes bracket the design space:
//
//   - nojournal: the lock-split engine with journaling disabled — the
//     upper bound the concurrency work can reach.
//   - journal:   the lock-split engine with the journal — durable submits
//     batch into shared fsyncs across independent stripe pipelines, so N
//     concurrent submitters pay ~1/N of an fsync each and stop funneling
//     into one file lock.
//   - async:     the same journal with async-durable acks — Submit returns
//     at stage time and durability is awaited in bulk on the commit
//     watermark, so the measured throughput still counts only durable
//     jobs while the per-submit ack drops to staging cost.
//
// The pre-lock-split engine (one global mutex around Submit, one inline
// fsync per durable append) was a fourth mode until the inline writer was
// deleted; its last measured row is frozen in EXPERIMENTS.md.
//
// Timing covers the submit phase only (first Submit call to last
// acknowledgement — for async, to the watermark covering the last ticket);
// job execution is parked behind a long dispatch delay so the measurement
// isolates the submit path.

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gyan/internal/galaxy"
	"gyan/internal/journal"
	"gyan/internal/report"
	"gyan/internal/workload"
)

func init() {
	register("dispatch-throughput",
		"Submit-path jobs/sec and ack latency of the lock-split engine: no journal, sync-durable acks, async-durable acks",
		runDispatchThroughput)
}

// dispatchLevels are the concurrent-submitter counts the sweep covers.
var dispatchLevels = []int{1, 4, 16, 64}

// dispatchScale sizes the sweep: jobs submitted per (mode, concurrency)
// cell and trials per cell (best-of, to shed scheduler noise). The cell
// must be large enough that a pipelined mode's throughput is not dominated
// by the fixed tail (one last fsync per stripe) — with too few jobs the
// async mode measures fsync latency, not sustained rate.
func dispatchScale(opt Options) (jobs, trials int) {
	if opt.Quick {
		return 1024, 2
	}
	return 4096, 3
}

// dispatchCell is one measured (mode, concurrency) point. The quantiles are
// exact (nearest rank over the sorted acknowledgement latencies), and
// fsyncBatchP95 is the group-commit batch-size tail mirrored from the
// engine's observer.
type dispatchCell struct {
	jobsPerSec    float64
	p50, p95, p99 time.Duration
	syncs         int
	fsyncBatchP95 float64
}

// runDispatchCell submits nJobs jobs from conc goroutines and times the
// submit phase. The returned P99 is over per-submit acknowledgement
// latencies.
func runDispatchCell(mode string, conc, nJobs int, rs *workload.ReadSet) (dispatchCell, error) {
	var cell dispatchCell
	var gopts []galaxy.Option
	var j *journal.Journal
	if mode != "nojournal" {
		dir, err := os.MkdirTemp("", "gyan-dispatch-*")
		if err != nil {
			return cell, err
		}
		defer os.RemoveAll(dir)
		if j, err = journal.Open(dir, journal.Options{DurableSubmits: true}); err != nil {
			return cell, err
		}
		gopts = append(gopts, galaxy.WithJournal(j, "bench"))
	}
	g := galaxy.New(nil, gopts...)
	if err := g.RegisterDefaultTools(); err != nil {
		return cell, err
	}

	lat := make([]time.Duration, nJobs)
	var next atomic.Int64
	var maxTick atomic.Uint64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= nJobs {
					return
				}
				t0 := time.Now()
				job, err := g.Submit("racon", map[string]string{"scale": "0.001"}, rs,
					galaxy.SubmitOptions{Delay: time.Hour, AsyncDurable: mode == "async"})
				lat[i] = time.Since(t0)
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				if mode == "async" {
					for {
						cur := maxTick.Load()
						if job.DurableTicket <= cur || maxTick.CompareAndSwap(cur, job.DurableTicket) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if mode == "async" {
		// The throughput number counts only durable jobs: the clock keeps
		// running until the commit watermark covers every issued ticket.
		if err := g.AwaitDurable(maxTick.Load()); err != nil {
			return cell, err
		}
	}
	elapsed := time.Since(start)
	if errp := firstErr.Load(); errp != nil {
		return cell, *errp
	}
	if j != nil {
		cell.syncs = j.Stats().Syncs
		// The engine's observer watched every durable append's fsync via the
		// journal hook; its batch-size histogram is the group-commit story in
		// one number.
		cell.fsyncBatchP95 = g.Observer().Reg.Snapshot()["gyan_journal_fsync_batch_records_p95"]
		if err := j.Close(); err != nil {
			return cell, err
		}
	}
	sort.Slice(lat, func(i, k int) bool { return lat[i] < lat[k] })
	rank := func(pct int) time.Duration { return lat[(pct*nJobs+99)/100-1] }
	cell.p50, cell.p95, cell.p99 = rank(50), rank(95), rank(99)
	cell.jobsPerSec = float64(nJobs) / elapsed.Seconds()
	return cell, nil
}

func runDispatchThroughput(opt Options) (*Result, error) {
	rs, err := nflReadSet(opt)
	if err != nil {
		return nil, err
	}
	res := newResult("dispatch-throughput",
		"Submit-path jobs/sec and ack latency of the lock-split engine: no journal, sync-durable acks, async-durable acks")
	nJobs, nTrials := dispatchScale(opt)
	modes := []string{"nojournal", "journal", "async"}

	cells := map[string]dispatchCell{}
	for _, mode := range modes {
		for _, conc := range dispatchLevels {
			best := dispatchCell{}
			for trial := 0; trial < nTrials; trial++ {
				cell, err := runDispatchCell(mode, conc, nJobs, rs)
				if err != nil {
					return nil, fmt.Errorf("dispatch %s c=%d: %w", mode, conc, err)
				}
				if best.jobsPerSec == 0 || cell.jobsPerSec > best.jobsPerSec {
					best = cell
				}
			}
			cells[fmt.Sprintf("%s_c%d", mode, conc)] = best
			res.Metrics[fmt.Sprintf("jobs_per_sec_c%d_%s", conc, mode)] = best.jobsPerSec
			res.Metrics[fmt.Sprintf("p50_us_c%d_%s", conc, mode)] =
				float64(best.p50.Nanoseconds()) / 1e3
			res.Metrics[fmt.Sprintf("p95_us_c%d_%s", conc, mode)] =
				float64(best.p95.Nanoseconds()) / 1e3
			res.Metrics[fmt.Sprintf("p99_us_c%d_%s", conc, mode)] =
				float64(best.p99.Nanoseconds()) / 1e3
			if mode != "nojournal" {
				res.Metrics[fmt.Sprintf("fsync_batch_p95_c%d_%s", conc, mode)] = best.fsyncBatchP95
			}
		}
	}

	tb := report.NewTable(
		fmt.Sprintf("%d durable submits per cell, best of %d; submit phase only", nJobs, nTrials),
		"submitters", "lock-split jobs/s", "sharded journal jobs/s", "async-ack jobs/s",
		"journal P50", "journal P99", "async ack P99")
	for _, conc := range dispatchLevels {
		n := cells[fmt.Sprintf("nojournal_c%d", conc)]
		g := cells[fmt.Sprintf("journal_c%d", conc)]
		a := cells[fmt.Sprintf("async_c%d", conc)]
		tb.AddRow(fmt.Sprintf("%d", conc),
			fmt.Sprintf("%.0f", n.jobsPerSec),
			fmt.Sprintf("%.0f", g.jobsPerSec),
			fmt.Sprintf("%.0f", a.jobsPerSec),
			g.p50.Round(time.Microsecond).String(),
			g.p99.Round(time.Microsecond).String(),
			a.p99.Round(time.Microsecond).String())
	}
	res.Tables = append(res.Tables, tb)

	journal1, journal16 := cells["journal_c1"], cells["journal_c16"]
	journal64, async64 := cells["journal_c64"], cells["async_c64"]
	res.Text = append(res.Text, fmt.Sprintf(
		"A lone submitter pays one fsync per durable submit (%d fsyncs for %d jobs, %.0f jobs/s). At 16 concurrent "+
			"submitters the journal accepts %.0f jobs/s: group commit shares each fsync across every submitter staged "+
			"behind it (%d fsyncs) and the stripe pipelines fsync in parallel. At 64 submitters the sync-ack journal "+
			"sustains %.0f durable jobs/s; trading the per-submit ack for the commit watermark (async mode) reaches "+
			"%.0f durable jobs/s with staging-cost acknowledgements. The journal-free column bounds what the "+
			"concurrency work alone buys.",
		journal1.syncs, nJobs, journal1.jobsPerSec,
		journal16.jobsPerSec, journal16.syncs,
		journal64.jobsPerSec, async64.jobsPerSec))
	return res, nil
}
