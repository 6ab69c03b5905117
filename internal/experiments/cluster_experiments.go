package experiments

import (
	"fmt"
	"time"

	"gyan/internal/cluster"
	"gyan/internal/report"
	"gyan/internal/sched"
	"gyan/internal/workload"
)

func init() {
	register("cluster-scaling",
		"Multi-handler cluster: 3-handler vs 1-handler saturation throughput, plus a kill-one-handler exactly-once audit",
		runClusterScaling)
}

// clusterReadSet keeps per-job wall cost tiny (the consensus input is
// minimal) while the 17 GiB nominal size keeps virtual runtimes in the
// ~0.5-2s band, so a 10k-job workload is simulatable in seconds of real
// time without changing the modeled numbers.
func clusterReadSet(opt Options) (*workload.ReadSet, error) {
	return workload.GenerateLongReads(workload.LongReadConfig{
		Name: "cluster_reads", Seed: opt.Seed, RefLen: 240, ReadLen: 80, Coverage: 2,
		SubRate: 0.02, InsRate: 0.03, DelRate: 0.03, BackboneErrorRate: 0.04,
		NominalBytes: 17 << 30,
	})
}

// clusterScale sizes the three phases: the full run is the 10k-job workload
// the acceptance gate names; Quick shrinks the streams for the test suite
// (the scaling ratio is a rate ratio, so it survives the shrink).
func clusterScale(opt Options) (jobs3h, jobs1h, jobsKill int) {
	if opt.Quick {
		return 600, 200, 240
	}
	return 10000, 3334, 3000
}

// submitMixed submits one job of the rotating mixed workload: ~45% short
// polishes, ~45% long polishes, ~10% CPU-side seqstats that ride along
// without consuming GPU capacity.
func submitMixed(c *cluster.Sim, i int, delay time.Duration) error {
	var err error
	switch {
	case i%10 == 9:
		_, err = c.Submit("seqstats", nil, "reads",
			cluster.SubmitOptions{Delay: delay, User: "mix"})
	case i%2 == 0:
		_, err = c.Submit("racon", map[string]string{"scale": "0.004"}, "reads",
			cluster.SubmitOptions{Delay: delay, User: "mix"})
	default:
		_, err = c.Submit("racon", map[string]string{"scale": "0.008"}, "reads",
			cluster.SubmitOptions{Delay: delay, User: "mix"})
	}
	return err
}

// handlerCapacity is the hand-estimated per-handler service rate (jobs/s)
// of the mixed stream: 2 GPUs over a ~1.05s mean GPU runtime, with the
// seqstats fraction essentially free. Arrivals run at 1.1x capacity so each
// configuration is measured at saturation — throughput then reads its
// service capacity, and the 3-vs-1 ratio reads real scaling (routing
// imbalance and steal latency are the only losses).
const handlerCapacity = 1.9

// runScalingPhase drives one configuration to drain and returns jobs/sec of
// virtual time.
func runScalingPhase(opt Options, handlers, jobs int) (float64, error) {
	rs, err := clusterReadSet(opt)
	if err != nil {
		return 0, err
	}
	c, err := cluster.NewSim(cluster.SimConfig{
		Handlers:              handlers,
		Tick:                  time.Second,
		DisableDurableSubmits: true,
		Sched:                 sched.Config{Backfill: true},
	})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	c.RegisterDataset("reads", rs)
	interval := time.Duration(float64(time.Second) / (handlerCapacity * 1.1 * float64(handlers)))
	for i := 0; i < jobs; i++ {
		if err := submitMixed(c, i, time.Duration(i)*interval); err != nil {
			return 0, err
		}
	}
	makespan := c.Run(1000 * time.Hour)
	for key := uint64(0); key < uint64(jobs); key++ {
		if _, job, ok := c.Lookup(key); !ok || job.State != "ok" {
			return 0, fmt.Errorf("cluster-scaling: %d-handler job %d did not complete: %+v",
				handlers, key, job)
		}
	}
	return float64(jobs) / makespan.Seconds(), nil
}

// runKillPhase replays the chaos suite's kill at experiment scale with
// durable journals: h1 dies kill -9 style (torn tail) mid-workload, the
// survivors detect the death by lease expiry, claim its stripes through
// journaled rebalance-claims, and the cross-journal audit must hold.
// Submissions routed to the dead partition fail until the claims land, so
// the submit loop retries them on later ticks, exactly like a client
// facing a crashed node.
func runKillPhase(opt Options, jobs int) (map[string]float64, error) {
	rs, err := clusterReadSet(opt)
	if err != nil {
		return nil, err
	}
	c, err := cluster.NewSim(cluster.SimConfig{
		Handlers: 3,
		Tick:     time.Second,
		Sched:    sched.Config{Backfill: true},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.RegisterDataset("reads", rs)

	rate := handlerCapacity * 1.1 * 3
	interval := time.Duration(float64(time.Second) / rate)
	arrival := func(i int) time.Duration { return time.Duration(i) * interval }
	killAt := jobs * 2 / 5
	killed := false
	submitted := 0
	for {
		for submitted < jobs && arrival(submitted) <= c.Now()+time.Second {
			if err := submitMixed(c, submitted, 0); err != nil {
				// Ring owner mid-failover: retry on a later tick once the
				// survivors have claimed the dead partition.
				break
			}
			submitted++
		}
		if !killed && submitted >= killAt {
			if err := c.KillHandler("h1", []byte{0x13, 0x37, 0xde, 0xad}); err != nil {
				return nil, err
			}
			killed = true
		}
		if busy := c.Step(); !busy && submitted >= jobs {
			break
		}
		if c.Now() > 1000*time.Hour {
			return nil, fmt.Errorf("cluster-scaling: kill phase did not drain")
		}
	}
	if err := c.SyncJournals(); err != nil {
		return nil, err
	}
	audit, err := cluster.AuditJournals(c.JournalDirs())
	if err != nil {
		return nil, err
	}
	if len(audit.Keys) != jobs {
		return nil, fmt.Errorf("cluster-scaling: audit saw %d keys, want %d", len(audit.Keys), jobs)
	}
	survivors := 0
	requeued := 0
	for _, hs := range c.Status().Handlers {
		if hs.ID != "h1" && hs.RebalancedIn > 0 {
			survivors++
			requeued += int(hs.RebalancedIn)
		}
	}
	torn := 0.0
	if audit.TornTailCounts["h1"] > 0 {
		torn = 1
	}
	return map[string]float64{
		"kill_jobs":           float64(jobs),
		"kill_lost":           float64(len(audit.Lost())),
		"kill_doubles":        float64(len(audit.Doubles())),
		"kill_requeued":       float64(requeued),
		"rebalance_survivors": float64(survivors),
		"torn_tail_detected":  torn,
		"kill_steals":         float64(c.Status().Steals),
	}, nil
}

// runClusterScaling measures the tentpole claim: partitioned ownership plus
// work stealing scales throughput near-linearly from one handler to three,
// and a handler kill mid-workload loses nothing and double-runs nothing.
func runClusterScaling(opt Options) (*Result, error) {
	jobs3h, jobs1h, jobsKill := clusterScale(opt)

	t1, err := runScalingPhase(opt, 1, jobs1h)
	if err != nil {
		return nil, err
	}
	t3, err := runScalingPhase(opt, 3, jobs3h)
	if err != nil {
		return nil, err
	}
	scaling := t3 / t1

	killMetrics, err := runKillPhase(opt, jobsKill)
	if err != nil {
		return nil, err
	}

	res := newResult("cluster-scaling",
		"Cluster scaling and failover: saturation throughput 1 vs 3 handlers; kill -9 one of three mid-workload")
	tb := report.NewTable(
		fmt.Sprintf("mixed workload (45%% racon 0.004 / 45%% racon 0.008 / 10%% seqstats), arrivals at 1.1x capacity, %d+%d jobs",
			jobs1h, jobs3h),
		"handlers", "jobs", "throughput (jobs/s)", "scaling")
	tb.AddRow("1", fmt.Sprint(jobs1h), fmt.Sprintf("%.2f", t1), "1.00x")
	tb.AddRow("3", fmt.Sprint(jobs3h), fmt.Sprintf("%.2f", t3), fmt.Sprintf("%.2fx", scaling))
	res.Tables = append(res.Tables, tb)

	kt := report.NewTable(
		fmt.Sprintf("kill phase: %d durable jobs, h1 killed (torn tail) at 40%% submitted", jobsKill),
		"jobs", "lost", "doubles", "requeued", "survivors sharing h1's partition", "torn tail seen")
	kt.AddRow(fmt.Sprint(jobsKill),
		fmt.Sprint(int(killMetrics["kill_lost"])),
		fmt.Sprint(int(killMetrics["kill_doubles"])),
		fmt.Sprint(int(killMetrics["kill_requeued"])),
		fmt.Sprint(int(killMetrics["rebalance_survivors"])),
		fmt.Sprint(killMetrics["torn_tail_detected"] == 1))
	res.Tables = append(res.Tables, kt)

	res.Metrics["throughput_1h_jobs_per_sec"] = t1
	res.Metrics["throughput_3h_jobs_per_sec"] = t3
	res.Metrics["scaling_3h_over_1h"] = scaling
	for k, v := range killMetrics {
		res.Metrics[k] = v
	}

	if scaling < 2.4 {
		return nil, fmt.Errorf("cluster-scaling: 3-handler throughput only %.2fx the 1-handler baseline (want >= 2.4x)", scaling)
	}
	if killMetrics["kill_lost"] != 0 || killMetrics["kill_doubles"] != 0 {
		return nil, fmt.Errorf("cluster-scaling: kill phase lost %v jobs, double-ran %v",
			killMetrics["kill_lost"], killMetrics["kill_doubles"])
	}
	if killMetrics["rebalance_survivors"] < 2 {
		return nil, fmt.Errorf("cluster-scaling: dead partition adopted wholesale (%v survivors)",
			killMetrics["rebalance_survivors"])
	}
	return res, nil
}
