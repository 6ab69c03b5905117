package cluster

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"gyan/internal/core"
	"gyan/internal/journal"
	"gyan/internal/sched"
	"gyan/internal/workload"
)

// tinyReads keeps per-job wall cost in the microsecond range (the consensus
// input is minimal) while the 17 GiB nominal size keeps virtual runtimes in
// the ~0.5-2s band that actually exercises queueing.
func tinyReads(t testing.TB) *workload.ReadSet {
	t.Helper()
	rs, err := workload.GenerateLongReads(workload.LongReadConfig{
		Name: "reads", Seed: 5, RefLen: 240, ReadLen: 80, Coverage: 2,
		SubRate: 0.02, InsRate: 0.03, DelRate: 0.03, BackboneErrorRate: 0.04,
		NominalBytes: 17 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func newTestCluster(t testing.TB, n int, mut func(*SimConfig)) *Sim {
	t.Helper()
	cfg := SimConfig{
		Handlers: n,
		Tick:     250 * time.Millisecond,
		Sched:    sched.Config{Backfill: true},
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.RegisterDataset("reads", tinyReads(t))
	return c
}

// stripesOf returns the stripes a handler currently owns.
func stripesOf(c *Sim, handler string) []int {
	var out []int
	for s, o := range c.Status().Partition {
		if o == handler {
			out = append(out, s)
		}
	}
	return out
}

func TestClusterRoutesAndCompletes(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	const jobs = 48
	for i := 0; i < jobs; i++ {
		if _, err := c.Submit("racon", map[string]string{"scale": "0.002"}, "reads",
			SubmitOptions{Delay: time.Duration(i) * 50 * time.Millisecond, User: "u"}); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(time.Hour)
	for key := uint64(0); key < jobs; key++ {
		ref, job, ok := c.Lookup(key)
		if !ok {
			t.Fatalf("key %d untracked", key)
		}
		if job.State != "ok" {
			t.Fatalf("key %d on %s: state %s (%s)", key, ref.Handler, job.State, job.Info)
		}
	}
	st := c.Status()
	if len(st.Partition) != DefaultStripes {
		t.Fatalf("partition has %d stripes, want %d", len(st.Partition), DefaultStripes)
	}
	var routed uint64
	for _, h := range st.Handlers {
		if h.Routed == 0 {
			t.Fatalf("handler %s routed no jobs: %+v", h.ID, st.Handlers)
		}
		if h.Stripes == 0 {
			t.Fatalf("handler %s owns no stripes", h.ID)
		}
		routed += h.Routed
	}
	if routed != jobs {
		t.Fatalf("routed %d jobs total, want %d", routed, jobs)
	}
	if st.Jobs != jobs {
		t.Fatalf("status jobs = %d, want %d", st.Jobs, jobs)
	}
}

// TestWorkStealingDrainsSkewedBacklog pins every key into one handler's
// partition; the other two handlers' idle GPUs must steal the backlog, and
// the exactly-once audit must hold through the moves.
func TestWorkStealingDrainsSkewedBacklog(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	victim := "h0"
	owned := stripesOf(c, victim)
	if len(owned) == 0 {
		t.Fatal("h0 owns no stripes")
	}
	const jobs = 30
	var keys []uint64
	for i := 0; i < jobs; i++ {
		key := uint64(owned[i%len(owned)]) + uint64(DefaultStripes*(i/len(owned)))
		keys = append(keys, key)
		if _, err := c.Submit("racon", map[string]string{"scale": "0.002"}, "reads",
			SubmitOptions{User: "u", Key: &key}); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(time.Hour)
	st := c.Status()
	if st.Steals == 0 {
		t.Fatal("no steals happened despite a fully skewed workload")
	}
	if got := st.Handlers[0].Routed; got != jobs {
		t.Fatalf("all %d jobs should have routed to h0, got %d", jobs, got)
	}
	// Every accepted transfer was retired: the in/out/total ledgers agree
	// across the cluster once the run drains (a steal chain h0→h1→h2 counts
	// once per hop on every ledger).
	stolenIn, stolenOut := uint64(0), uint64(0)
	for _, h := range st.Handlers {
		stolenIn += h.StolenIn
		stolenOut += h.StolenOut
	}
	if stolenIn != st.Steals || stolenOut != st.Steals || st.Handlers[0].StolenOut == 0 {
		t.Fatalf("steal accounting: total=%d stolenIn=%d stolenOut=%d h0Out=%d",
			st.Steals, stolenIn, stolenOut, st.Handlers[0].StolenOut)
	}
	for _, key := range keys {
		_, job, ok := c.Lookup(key)
		if !ok || job.State != "ok" {
			t.Fatalf("key %d did not complete: %+v", key, job)
		}
	}
	if err := c.SyncJournals(); err != nil {
		t.Fatal(err)
	}
	audit, err := AuditJournals(c.JournalDirs())
	if err != nil {
		t.Fatal(err)
	}
	if lost := audit.Lost(); len(lost) != 0 {
		t.Fatalf("lost keys: %v", lost)
	}
	if dbl := audit.Doubles(); len(dbl) != 0 {
		t.Fatalf("double executions: %v", dbl)
	}
	if ill := audit.Illegal(); len(ill) != 0 {
		t.Fatalf("trails holding a record the lifecycle refuses: %v", ill)
	}
	for key, kt := range audit.Keys {
		if len(kt.StartedOn) > 1 {
			t.Fatalf("key %d started on multiple live handlers: %v", key, kt.StartedOn)
		}
	}
}

// TestStolenJobKeepsSeniority pins that a transfer carries the original
// submission time: a stolen senior must start before the thief's junior.
func TestStolenJobKeepsSeniority(t *testing.T) {
	c := newTestCluster(t, 2, func(cfg *SimConfig) { cfg.stealThreshold = 1 })
	owned := stripesOf(c, "h0")
	// Saturate h0's two GPUs, then park two more jobs behind them.
	var parked []uint64
	for i := 0; i < 4; i++ {
		key := uint64(owned[i%len(owned)]) + uint64(DefaultStripes*(i/len(owned)))
		if _, err := c.Submit("racon", map[string]string{"scale": "0.01"}, "reads",
			SubmitOptions{User: "u", Key: &key, Delay: time.Duration(i) * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if i >= 2 {
			parked = append(parked, key)
		}
	}
	c.Run(time.Hour)
	for _, key := range parked {
		ref, job, ok := c.Lookup(key)
		if !ok || job.State != "ok" {
			t.Fatalf("parked key %d did not complete: %+v", key, job)
		}
		if ref.Handler != "h1" {
			t.Fatalf("parked key %d should have been stolen by h1, ran on %s", key, ref.Handler)
		}
		if job.Submitted == 0 {
			t.Fatalf("stolen key %d lost its submission time", key)
		}
		// The victim's copy is terminal as stolen; the thief's copy kept the
		// victim-side submission time (earlier than any h1-local activity).
		vjob := findStolen(t, c, "h0")
		if vjob == 0 {
			t.Fatal("victim has no stolen-state jobs")
		}
	}
	if c.Status().Steals != 2 {
		t.Fatalf("steals = %d, want 2", c.Status().Steals)
	}
}

func findStolen(t *testing.T, c *Sim, handler string) int {
	t.Helper()
	n := 0
	for _, j := range c.Node(handler).g.Jobs() {
		if string(j.State) == "stolen" {
			n++
		}
	}
	return n
}

func TestSurveyAggregatesAllHandlers(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	sv := c.Survey()
	if len(sv) != 2 {
		t.Fatalf("survey has %d handlers, want 2", len(sv))
	}
	for _, hs := range sv {
		if !hs.Alive {
			t.Fatalf("handler %s not alive", hs.Handler)
		}
		if len(hs.Report.GPUs) == 0 {
			t.Fatalf("handler %s surveyed no GPUs", hs.Handler)
		}
	}
	if err := c.KillHandler("h1", nil); err != nil {
		t.Fatal(err)
	}
	sv = c.Survey()
	if sv[1].Alive || len(sv[1].Report.GPUs) != 0 {
		t.Fatal("dead handler still surveyed")
	}
	if sv[0].Alive != true {
		t.Fatal("survivor lost its survey")
	}
}

// TestMemberPlacesByItsPolicy: Sched.Policy ranks a member's devices. On
// every member GPU 0 holds one foreign 4 GiB process and GPU 1 two of
// 100 MiB, so a routed 1-GPU job runs on GPU 0 by process count and on
// GPU 1 by memory.
func TestMemberPlacesByItsPolicy(t *testing.T) {
	for _, tc := range []struct {
		policy core.Policy
		want   []int
	}{
		{core.PolicyPID, []int{0}},
		{core.PolicyMemory, []int{1}},
	} {
		c := newTestCluster(t, 2, func(cfg *SimConfig) { cfg.Sched.Policy = tc.policy })
		for _, n := range c.nodes {
			for minor, mibs := range [][]int64{{4096}, {100, 100}} {
				d, err := n.g.Cluster.Device(minor)
				if err != nil {
					t.Fatal(err)
				}
				for _, mib := range mibs {
					pid := n.g.Cluster.NextPID()
					d.Attach(pid, "foreign")
					if err := d.Alloc(pid, mib<<20); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		ref, err := c.Submit("racon", map[string]string{"scale": "0.002"}, "reads", SubmitOptions{User: "u"})
		if err != nil {
			t.Fatal(err)
		}
		c.Run(time.Hour)
		_, job, ok := c.Lookup(ref.Key)
		if !ok {
			t.Fatalf("%v: key %d untracked", tc.policy, ref.Key)
		}
		if job.State != "ok" || !slices.Equal(job.Devices, tc.want) {
			t.Errorf("%v: job %s on GPU(s) %v (%s), want ok on %v", tc.policy, job.State, job.Devices, job.Info, tc.want)
		}
	}
}

func TestClusterMetricsExposition(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	if _, err := c.Submit("racon", map[string]string{"scale": "0.001"}, "reads", SubmitOptions{User: "u"}); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Hour)
	var sb strings.Builder
	if err := c.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"gyan_cluster_jobs_routed_total{",
		"gyan_cluster_handler_up{handler=\"h0\"} 1",
		"gyan_cluster_partition_stripes{",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestKillLastHandlerRefused(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	if err := c.KillHandler("h0", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.KillHandler("h1", nil); err == nil {
		t.Fatal("killing the last live handler should refuse")
	}
	if err := c.KillHandler("h0", nil); err == nil {
		t.Fatal("double kill should refuse")
	}
}

// TestNodeRefusesKeyItDoesNotOwn: a member journals only keys its own ring
// assigns to itself; a refused pinned key consumes nothing.
func TestNodeRefusesKeyItDoesNotOwn(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	n := c.Node("h0")
	key := uint64(stripesOf(c, "h1")[0])
	if _, err := n.Submit("racon", nil, "reads", SubmitOptions{Key: &key}); !errors.Is(err, errNotOwner) {
		t.Fatalf("h0 took key %d from h1's stripe: err=%v", key, err)
	}
	if st := n.Status(); st.Jobs != 0 || len(n.Keys()) != 0 || n.nextKey != 0 {
		t.Fatalf("refusal left a trace: jobs=%d keys=%v cursor=%d", st.Jobs, n.Keys(), n.nextKey)
	}
	ref, err := n.Submit("racon", map[string]string{"scale": "0.001"}, "reads", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(stripesOf(c, "h0")[0]); ref.Key != want || ref.Handler != "h0" {
		t.Fatalf("first drawn key = %d on %s, want h0's lowest stripe %d", ref.Key, ref.Handler, want)
	}
}

// TestNodeLatchesJournalError: a member's Submit journals through the
// engine, which latches an append error instead of returning it, so the
// member must report the latch for its server to refuse the ack.
func TestNodeLatchesJournalError(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	n := c.Node("h0")
	if err := n.JournalError(); err != nil {
		t.Fatalf("fresh member reports journal error %v", err)
	}
	if err := n.jr.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Submit("racon", map[string]string{"scale": "0.001"}, "reads", SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if n.JournalError() == nil {
		t.Fatal("member reports no journal error after a submit its journal could not take")
	}
	if c.JournalError() == nil {
		t.Fatal("cluster reports no journal error while a live member's journal has failed")
	}
}

// TestAuditCountsIllegalTrails audits two hand-written journals holding the
// stream a kill racing a steal used to write: on the victim h1, the submit,
// the prepare naming h2, the kill's complete(error) and then the retire; on
// the thief h2, the accept's submit and adopt, a start and complete(ok). The
// key has a terminal state and one ok, so it reads neither lost nor doubled,
// though the user's kill was lost: only the victim's refused complete shows
// it, and Illegal names the key.
func TestAuditCountsIllegalTrails(t *testing.T) {
	const key = 42
	params := map[string]string{KeyParam: "42"}
	journals := map[string][]journal.Record{
		"h1": {
			{Type: journal.TypeSubmit, Job: 1, Handler: "h1", Params: params},
			{Type: journal.TypeStealPrepare, Job: 1, Handler: "h2", From: "h1", Xfer: 7},
			{Type: journal.TypeComplete, Job: 1, State: "error", Msg: "killed by user"},
			{Type: journal.TypeStealRetire, Job: 1, Handler: "h2", From: "h1", Xfer: 7},
		},
		"h2": {
			{Type: journal.TypeSubmit, Job: 1, Handler: "h2", Params: params, Xfer: 7},
			{Type: journal.TypeAdopt, Job: 1, Handler: "h2", From: "h1"},
			{Type: journal.TypeStart, Job: 1, Epoch: 1},
			{Type: journal.TypeComplete, Job: 1, State: "ok"},
		},
	}
	dirs := make(map[string]string)
	for h, recs := range journals {
		dirs[h] = t.TempDir()
		j, err := journal.Open(dirs[h], journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Handler == "" {
				r.Handler = h
			}
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	audit, err := AuditJournals(dirs)
	if err != nil {
		t.Fatal(err)
	}
	if lost, dbl, illegal := audit.Lost(), audit.Doubles(), audit.Illegal(); len(lost) != 0 || len(dbl) != 0 || !slices.Equal(illegal, []uint64{key}) {
		t.Fatalf("lost %v, doubles %v, illegal %v; want none, none and [%d]", lost, dbl, illegal, key)
	}
	if kt := audit.Keys[key]; kt.Illegal != 1 || len(kt.StartedOn) != 1 || kt.StartedOn[0] != "h2" {
		t.Errorf("key %d: %d illegal records, started on %v; want 1 and h2 alone", key, kt.Illegal, kt.StartedOn)
	}
}
