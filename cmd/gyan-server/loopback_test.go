package main

// The networked acceptance test the TCP bus is pinned by: two real
// gyan-server processes on loopback carry a steal workload over sockets,
// one is kill -9'd mid-run, restarted, and readmitted under a bumped
// incarnation — then both journals are folded through the same
// cross-journal audit the simulated chaos tests use. The sim tests prove
// the protocol; this proves the wiring: flags, member catalog, real
// sockets, wall-paced ticking, and the HTTP surface.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gyan/internal/cluster"
)

const (
	// The workload is bonito on the paper's small squiggle set: basecalling
	// simulates in well under a second of real compute yet costs hundreds
	// of virtual seconds, so wall-paced ticking stays responsive (the
	// engine executes tools inline under the server lock) while each job
	// still occupies a GPU for seconds of real time — the window the
	// kill -9 needs. At scale 0.05 one job is ~750 virtual seconds, about
	// three real seconds at -speedup 240.
	lbTool    = "bonito"
	lbDataset = "acinetobacter_pittii"
	lbScale   = "0.05"
	lbSpeedup = "240"
	// lbMemberTTL is 16 virtual minutes = 4 real seconds at -speedup 240:
	// generous enough that process startup skew cannot lapse a lease
	// before the first renewals cross the wire, short enough that the
	// post-kill declaration arrives in seconds.
	lbMemberTTL = "16m"
	lbTickReal  = "25ms"
)

// lbTerminal is the set of states under which a job asks nothing more of
// the handler that reports it ("stolen" is terminal on the victim: the
// thief's journal carries the live trail).
var lbTerminal = map[string]bool{
	"ok": true, "error": true, "dead_letter": true, "stolen": true,
}

// reserveLoopbackAddr grabs a free loopback port and releases it for a
// child process to re-bind. The tiny race with other processes is
// acceptable in tests.
func reserveLoopbackAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// buildRaceServer compiles gyan-server with the race detector so the
// child processes police tcpbus's real concurrency while they run.
func buildRaceServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gyan-server")
	cmd := exec.Command("go", "build", "-race", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}
	return bin
}

type lbProc struct {
	id  string
	cmd *exec.Cmd
}

// startMember launches one cluster member process. Output appends to
// <root>/<id>.log; the log is dumped if the test fails.
func startMember(t *testing.T, bin, root, id, apiAddr, peers string) *lbProc {
	t.Helper()
	logPath := filepath.Join(root, id+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin,
		"-bus", "tcp",
		"-addr", apiAddr,
		"-member", id,
		"-members", "h0,h1",
		"-peers", peers,
		"-journal", root,
		"-seed", "42",
		"-speedup", lbSpeedup,
		"-tick-real", lbTickReal,
		"-member-ttl", lbMemberTTL,
	)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		t.Fatalf("start %s: %v", id, err)
	}
	logf.Close() // the child holds its own descriptor now
	p := &lbProc{id: id, cmd: cmd}
	t.Cleanup(func() {
		p.kill9()
		if t.Failed() {
			if data, err := os.ReadFile(logPath); err == nil {
				if len(data) > 8192 {
					data = data[len(data)-8192:]
				}
				t.Logf("%s log tail:\n%s", id, data)
			}
		}
	})
	return p
}

// kill9 delivers SIGKILL — no shutdown hooks, no final fsync — and reaps
// the process. Safe to call twice.
func (p *lbProc) kill9() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

func lbGetJSON(url string, v any) error {
	c := http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func lbTransportOf(apiAddr string) (cluster.TransportStatus, error) {
	var ts cluster.TransportStatus
	err := lbGetJSON("http://"+apiAddr+"/api/cluster/transport", &ts)
	return ts, err
}

type lbJob struct {
	Key     uint64 `json:"key"`
	Handler string `json:"handler"`
	State   string `json:"state"`
}

func lbJobsOf(apiAddr string) ([]lbJob, error) {
	var jobs []lbJob
	err := lbGetJSON("http://"+apiAddr+"/api/cluster/jobs", &jobs)
	return jobs, err
}

// lbSubmit posts one basecalling job and returns its cluster key, retrying
// while the member refuses (a warming rejoiner answers 400 until every
// live peer has acknowledged its new incarnation).
func lbSubmit(t *testing.T, apiAddr string, timeout time.Duration) uint64 {
	t.Helper()
	body := []byte(`{"tool":"` + lbTool + `","dataset":"` + lbDataset + `","params":{"scale":"` + lbScale + `"}}`)
	client := http.Client{Timeout: 10 * time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Post("http://"+apiAddr+"/api/cluster/jobs", "application/json", bytes.NewReader(body))
		if err == nil {
			var j lbJob
			decodeErr := json.NewDecoder(resp.Body).Decode(&j)
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted && decodeErr == nil {
				return j.Key
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit to %s did not succeed within %v (last err %v)", apiAddr, timeout, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func lbSync(apiAddr string) error {
	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post("http://"+apiAddr+"/api/cluster/sync", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sync %s: %s", apiAddr, resp.Status)
	}
	return nil
}

func waitFor(t *testing.T, timeout time.Duration, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// memberRow finds one member's protocol row in a transport status.
func memberRow(ts cluster.TransportStatus, id string) (cluster.MemberProtocol, bool) {
	for _, m := range ts.Members {
		if m.ID == id {
			return m, true
		}
	}
	return cluster.MemberProtocol{}, false
}

func TestLoopbackTCPClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process loopback test")
	}
	bin := buildRaceServer(t)
	root := t.TempDir()
	api := map[string]string{"h0": reserveLoopbackAddr(t), "h1": reserveLoopbackAddr(t)}
	bus := map[string]string{"h0": reserveLoopbackAddr(t), "h1": reserveLoopbackAddr(t)}
	peers := fmt.Sprintf("h0=%s,h1=%s", bus["h0"], bus["h1"])

	p0 := startMember(t, bin, root, "h0", api["h0"], peers)
	_ = p0
	p1 := startMember(t, bin, root, "h1", api["h1"], peers)
	for _, id := range []string{"h0", "h1"} {
		addr := api[id]
		waitFor(t, 30*time.Second, id+" API readiness", func() bool {
			var v map[string]string
			return lbGetJSON("http://"+addr+"/api/version", &v) == nil
		})
	}

	// Batch A: backlog h0 far past its two GPUs; the stealing pass hands
	// the overflow to idle h1 over the wire.
	var keys []uint64
	for i := 0; i < 16; i++ {
		keys = append(keys, lbSubmit(t, api["h0"], 15*time.Second))
	}

	// Kill -9 the thief the moment it demonstrably holds unfinished stolen
	// work. The accept was fsynced before the job could run; the complete
	// is still seconds of real time away — so h1 dies owing
	// the cluster at least one job, and only its journal proves it.
	waitFor(t, 60*time.Second, "h1 to hold unfinished stolen work", func() bool {
		jobs, err := lbJobsOf(api["h1"])
		if err != nil {
			return false
		}
		for _, j := range jobs {
			if !lbTerminal[j.State] {
				return true
			}
		}
		return false
	})
	p1.kill9()

	// h0's failure detector lapses the lease, claims the dead stripes,
	// replays h1's journal from the shared root, and requeues the work.
	waitFor(t, 60*time.Second, "h0 to declare h1 dead", func() bool {
		ts, err := lbTransportOf(api["h0"])
		if err != nil {
			return false
		}
		row, ok := memberRow(ts, "h0")
		if !ok {
			return false
		}
		for _, d := range row.DeadSeen {
			if d == "h1" {
				return true
			}
		}
		return false
	})

	// Batch B: the survivor keeps accepting work through the outage.
	for i := 0; i < 6; i++ {
		keys = append(keys, lbSubmit(t, api["h0"], 15*time.Second))
	}

	// Restart h1 with identical flags. The member catalog bumps its
	// incarnation; it boots warming and the renew/rejoin-ack handshake
	// readmits it without replaying any of its forfeited work.
	p1 = startMember(t, bin, root, "h1", api["h1"], peers)
	waitFor(t, 30*time.Second, "restarted h1 API readiness", func() bool {
		var v map[string]string
		return lbGetJSON("http://"+api["h1"]+"/api/version", &v) == nil
	})
	waitFor(t, 60*time.Second, "h1 to finish warming under a bumped incarnation", func() bool {
		ts, err := lbTransportOf(api["h1"])
		if err != nil {
			return false
		}
		row, ok := memberRow(ts, "h1")
		return ok && row.Alive && !row.Warming && row.Incarnation >= 2
	})
	waitFor(t, 60*time.Second, "h0 to readmit h1", func() bool {
		ts, err := lbTransportOf(api["h0"])
		if err != nil {
			return false
		}
		row, ok := memberRow(ts, "h1")
		return ok && row.Alive
	})

	// Batch C: the rejoined member accepts fresh submissions on its own
	// key stripe.
	for i := 0; i < 6; i++ {
		keys = append(keys, lbSubmit(t, api["h1"], 30*time.Second))
	}

	// Drain: every key terminal wherever it lives, no transfer in flight,
	// no dead-member work pending.
	drained := func(addr string) bool {
		jobs, err := lbJobsOf(addr)
		if err != nil || len(jobs) == 0 {
			return false
		}
		for _, j := range jobs {
			if !lbTerminal[j.State] {
				return false
			}
		}
		ts, err := lbTransportOf(addr)
		if err != nil {
			return false
		}
		for _, m := range ts.Members {
			if m.Remote {
				continue
			}
			if m.OutXfers != 0 || m.UnretiredIn != 0 || m.PendingDead != 0 {
				return false
			}
		}
		return true
	}
	waitFor(t, 120*time.Second, "both members to drain", func() bool {
		return drained(api["h0"]) && drained(api["h1"])
	})
	for _, id := range []string{"h0", "h1"} {
		if err := lbSync(api[id]); err != nil {
			t.Fatal(err)
		}
	}
	p0.kill9()
	p1.kill9()

	// The cross-journal fold: the same exactly-once invariants the
	// simulated chaos tests pin, now over journals written by two OS
	// processes that only ever spoke through sockets.
	audit, err := cluster.AuditJournals(map[string]string{
		"h0": filepath.Join(root, "h0"),
		"h1": filepath.Join(root, "h1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(audit.Keys) != len(keys) {
		t.Fatalf("audit saw %d keys, want %d", len(audit.Keys), len(keys))
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

	// Multi-handler starts are only explained by the kill: any key that
	// started on both members must count h1 — the member that died holding
	// it — among them.
	for key, kt := range audit.Keys {
		if len(kt.StartedOn) > 1 {
			hasDead := false
			for _, h := range kt.StartedOn {
				if h == "h1" {
					hasDead = true
				}
			}
			if !hasDead {
				t.Fatalf("key %d started on %v without the dead member among them", key, kt.StartedOn)
			}
		}
	}

	// The kill must actually have forfeited work (the test aims the SIGKILL
	// at a window where h1 provably holds an unfinished accept), and the
	// survivor must have started the adopted jobs in submission order.
	type adopted struct {
		key                uint64
		submitted, started time.Duration
	}
	var got []adopted
	for key, kt := range audit.Keys {
		if kt.AdoptedFrom["h0"] != "h1" {
			continue
		}
		starts := kt.Starts["h0"]
		if len(starts) == 0 {
			continue
		}
		got = append(got, adopted{key, kt.Submitted, starts[len(starts)-1]})
	}
	if len(got) == 0 {
		t.Fatal("the kill -9 left nothing for h0 to adopt — the outage window closed before any steal was forfeited")
	}
	sort.Slice(got, func(i, j int) bool { return got[i].started < got[j].started })
	for i := 1; i < len(got); i++ {
		if got[i].submitted < got[i-1].submitted {
			t.Fatalf("seniority violated on h0: key %d (submitted %v) started after key %d (submitted %v)",
				got[i-1].key, got[i-1].submitted, got[i].key, got[i].submitted)
		}
	}

	dumpLoopbackAudit(t, audit, len(keys))
}

// dumpLoopbackAudit writes the audit outcome as a JSON artifact when
// GYAN_AUDIT_DIR is set (the CI tcp-transport job sets it and uploads the
// directory), so a passing run still leaves an inspectable exactly-once
// record of the networked chaos scenario.
func dumpLoopbackAudit(t *testing.T, audit *cluster.Audit, total int) {
	t.Helper()
	dir := os.Getenv("GYAN_AUDIT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("audit artifact dir: %v", err)
		return
	}
	payload := map[string]any{
		"test":             t.Name(),
		"keys":             total,
		"dead_member":      "h1",
		"lost":             audit.Lost(),
		"doubles":          audit.Doubles(),
		"illegal":          audit.Illegal(),
		"torn_tail_counts": audit.TornTailCounts,
		"claims":           audit.Claims,
		"records":          audit.Records,
	}
	b, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		t.Logf("audit artifact marshal: %v", err)
		return
	}
	name := strings.ReplaceAll(t.Name(), "/", "_") + ".json"
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		t.Logf("audit artifact write: %v", err)
	}
}
