package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gyan/internal/api"
	"gyan/internal/cluster"
	"gyan/internal/galaxy"
	"gyan/internal/sched"
	"gyan/internal/transport"
	"gyan/internal/transport/tcpbus"
)

// Wall pacing of the two-member cluster. At 2400 virtual seconds per real
// second a 20ms tick is 48 virtual seconds; the 400 virtual minutes of
// member TTL are 10 real seconds, so a saturated member that misses ticks
// is not declared dead (at -tick-real 10ms with the default TTL it is).
const (
	tcpSpeedup   = 2400.0
	tcpTickReal  = 20 * time.Millisecond
	tcpMemberTTL = 400 * time.Minute
	// One basecall of the paper's small squiggle set: ~40ms of real CNN
	// inference, 150 virtual seconds (~3 ticks) on a GPU at this scale.
	tcpJobBody = `{"tool":"bonito","dataset":"acinetobacter_pittii","params":{"scale":"0.01"}}`
)

var tcpMembers = []string{"h0", "h1"}

// tcpOutstanding is one submitted key the generator is still polling.
type tcpOutstanding struct {
	index int
	sent  time.Time
	node  int // member last known to hold the job
}

// tcpDrive keeps sz.TCPOutstanding jobs in flight from one goroutine: POST
// to h0 only, poll each key to terminal on whichever member holds it. The
// measured window opens when the warm-up's last job completes; t0 is when
// the round began, and everything up to the window is its set-up.
func tcpDrive(nodes []httpTarget, sz sizes, t0 time.Time, r *round, tr *tracer, cpu func() time.Duration) error {
	total := sz.TCPWarm + sz.TCPJobs
	pending := map[uint64]*tcpOutstanding{}
	var lat []time.Duration
	submitted, completed := 0, 0
	var windowStart time.Time
	var cpu0 time.Duration
	var root openSpan
	deadline := time.Now().Add(150 * time.Second)
	for completed < total {
		for len(pending) < sz.TCPOutstanding && submitted < total {
			var j jobReply
			sp := tr.start("cluster.submit", "loadgen.round", submitted+1)
			status, err := nodes[0].post("/api/cluster/jobs", tcpJobBody, &j)
			sp.end()
			if err != nil {
				return fmt.Errorf("submit %d: %w", submitted, err)
			}
			if status != http.StatusAccepted {
				return fmt.Errorf("submit %d: status %d, want 202", submitted, status)
			}
			if _, dup := pending[j.Key]; dup {
				return fmt.Errorf("key %d issued twice", j.Key)
			}
			pending[j.Key] = &tcpOutstanding{index: submitted, sent: time.Now()}
			submitted++
		}
		keys := make([]uint64, 0, len(pending))
		for k := range pending {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, k int) bool { return keys[i] < keys[k] })
		for _, key := range keys {
			o := pending[key]
			var j jobReply
			if err := nodes[o.node].get("/api/cluster/jobs/"+strconv.FormatUint(key, 10), &j); err != nil {
				if o.node != 0 {
					continue // the thief has not journaled its accept yet
				}
				return fmt.Errorf("poll key %d: %w", key, err)
			}
			switch j.State {
			case "stolen":
				o.node = 1 - o.node
			case "ok":
				if err := j.check(true, false); err != nil {
					return fmt.Errorf("key %d: %w", key, err)
				}
				delete(pending, key)
				completed++
				if o.index >= sz.TCPWarm {
					lat = append(lat, time.Since(o.sent))
				}
				if completed == sz.TCPWarm {
					windowStart = time.Now()
					r.setup = windowStart.Sub(t0)
					cpu0 = cpu()
					if tr != nil {
						tr.paused.Store(false)
					}
					root = tr.start("loadgen.round", "", 0)
				}
			case "error", "dead_letter":
				return fmt.Errorf("key %d ended %s: %s", key, j.State, j.Info)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d jobs complete after 150s", completed, total)
		}
		time.Sleep(4 * time.Millisecond)
	}
	root.end()
	r.wall = time.Since(windowStart)
	r.cpu = cpu() - cpu0
	r.jobs = sz.TCPJobs
	r.attempted = sz.TCPJobs
	r.lat = lat
	return nil
}

// clusterView is what the members report about the run afterwards.
type clusterView struct {
	stolen, sent, retries, reconnects float64
}

// inspect reads every member's public view after the drain: a member that
// declared a peer dead voids the run, as does a run in which nothing was
// stolen — both mean the cluster path was not the one measured.
func inspect(nodes []httpTarget) (clusterView, error) {
	var v clusterView
	for _, n := range nodes {
		var ts cluster.TransportStatus
		if err := n.get("/api/cluster/transport", &ts); err != nil {
			return v, err
		}
		for _, m := range ts.Members {
			if len(m.DeadSeen) > 0 {
				return v, fmt.Errorf("void run: %s declared %v dead (false death: no member was killed)", m.ID, m.DeadSeen)
			}
		}
		v.sent += float64(ts.Bus.Sent)
		for _, p := range ts.Peers {
			v.reconnects += float64(p.Reconnects)
		}
		var st cluster.Status
		if err := n.get("/api/cluster", &st); err != nil {
			return v, err
		}
		for _, h := range st.Handlers {
			if !h.Remote {
				v.stolen += float64(h.StolenIn)
			}
		}
		m, err := scrape(n)
		if err != nil {
			return v, err
		}
		v.retries += sumFamily(m, "gyan_cluster_steal_retries_total")
	}
	if v.stolen == 0 {
		return v, fmt.Errorf("void run: no job was stolen; h1 never took part")
	}
	return v, nil
}

func (v clusterView) fold(r *round, jobs float64) {
	r.set("cluster.stolen_share", v.stolen/jobs)
	r.set("cluster.msgs_per_job", v.sent/jobs)
	if v.stolen > 0 {
		r.set("cluster.steal_retries_per_steal", v.retries/v.stolen)
	}
	r.set("tcpbus.reconnects", v.reconnects)
	r.set("cluster.false_deaths", 0) // a false death returns an error instead
}

// audit folds both members' journals: every key the generator was
// acknowledged must be durably terminal exactly once.
func auditCluster(root string, want int) error {
	dirs := map[string]string{}
	for _, id := range tcpMembers {
		dirs[id] = filepath.Join(root, id)
	}
	a, err := cluster.AuditJournals(dirs)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if lost, doubles := a.Lost(), a.Doubles(); len(lost) > 0 || len(doubles) > 0 {
		return fmt.Errorf("audit: %d lost %v, %d double-run %v", len(lost), lost, len(doubles), doubles)
	}
	if len(a.Keys) != want {
		return fmt.Errorf("audit: %d keys in the journals, %d acknowledged", len(a.Keys), want)
	}
	return nil
}

// tcpRound is one repetition of tcp_cluster: two real gyan-server -bus tcp
// processes on loopback over a shared journal root. No network delay is
// injected: message latency is the sandbox's loopback, not a network's.
func tcpRound(e *env, sz sizes, seed uint64) (*round, error) {
	r := &round{}
	t0 := time.Now()
	root, err := e.tempDir("tcp_cluster")
	if err != nil {
		return nil, err
	}
	var peers []string
	for _, id := range tcpMembers {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		peers = append(peers, id+"="+addr)
	}
	var procs []*proc
	defer os.RemoveAll(root)
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()
	for _, id := range tcpMembers {
		p, err := e.launchServer("tcp_"+id,
			"-bus", "tcp", "-member", id, "-members", strings.Join(tcpMembers, ","),
			"-peers", strings.Join(peers, ","), "-journal", root, "-seed", "42",
			"-speedup", strconv.FormatFloat(tcpSpeedup, 'f', -1, 64),
			"-tick-real", tcpTickReal.String(), "-member-ttl", tcpMemberTTL.String())
		if err != nil {
			return nil, err
		}
		procs = append(procs, p)
	}
	client := keepAliveClient(e.c)
	defer client.CloseIdleConnections()
	var nodes []httpTarget
	for _, p := range procs {
		if err := p.waitReady(30 * time.Second); err != nil {
			return nil, fmt.Errorf("%w\n%s", err, p.logTail())
		}
		nodes = append(nodes, httpTarget{base: "http://" + p.addr, client: client})
	}
	r.set("server.boot_ms", float64(time.Since(t0))/1e6)

	cpu := func() time.Duration {
		var total time.Duration
		for _, p := range procs {
			d, _ := p.cpu()
			total += d
		}
		return total
	}
	fail := func(err error) (*round, error) {
		return nil, fmt.Errorf("tcp_cluster: %w\n-- h0 --\n%s-- h1 --\n%s", err, procs[0].logTail(), procs[1].logTail())
	}
	if err := tcpDrive(nodes, sz, t0, r, nil, cpu); err != nil {
		return fail(err)
	}
	view, err := inspect(nodes)
	if err != nil {
		return fail(err)
	}
	total := sz.TCPWarm + sz.TCPJobs
	view.fold(r, float64(total))
	rss := 0.0
	for _, p := range procs {
		rss += p.rssPeakMB()
	}
	r.set("server.rss_peak_mb", rss)
	for _, n := range nodes {
		var synced map[string]bool
		if _, err := n.post("/api/cluster/sync", "", &synced); err != nil {
			return fail(err)
		}
	}
	for _, p := range procs {
		p.stop()
	}
	procs = nil
	if err := auditCluster(root, total); err != nil {
		return nil, fmt.Errorf("tcp_cluster: %w", err)
	}
	return r, nil
}

// timedBus decorates a transport: it times the steal handshake from the
// victim's prepare to its retire of the same transfer, and keeps one
// message body per type for the codec timings.
type timedBus struct {
	transport.Transport

	mu       sync.Mutex
	prepared map[string]time.Time // "to" of an unretired prepare -> first send
	rtt      []time.Duration
	bodies   map[string]any
}

func newTimedBus(inner transport.Transport) *timedBus {
	return &timedBus{Transport: inner, prepared: map[string]time.Time{}, bodies: map[string]any{}}
}

func (b *timedBus) Send(now time.Duration, typ, from, to string, body any) {
	b.mu.Lock()
	if _, seen := b.bodies[typ]; !seen && body != nil {
		b.bodies[typ] = body
	}
	switch typ {
	case transport.MsgStealPrepare:
		k := to + xferOf(body)
		if _, again := b.prepared[k]; !again {
			b.prepared[k] = time.Now()
		}
	case transport.MsgStealRetire:
		k := to + xferOf(body)
		if t0, ok := b.prepared[k]; ok {
			b.rtt = append(b.rtt, time.Since(t0))
			delete(b.prepared, k)
		}
	}
	b.mu.Unlock()
	b.Transport.Send(now, typ, from, to, body)
}

// xferOf reads the transfer number a steal message carries. The bodies are
// the protocol's own unexported types; their Xfer field is all the pairing
// needs.
func xferOf(body any) string {
	v := reflect.ValueOf(body)
	if v.Kind() != reflect.Struct {
		return ""
	}
	f := v.FieldByName("Xfer")
	if !f.IsValid() || !f.CanUint() {
		return ""
	}
	return "#" + strconv.FormatUint(f.Uint(), 10)
}

func (b *timedBus) PeerStats() map[string]transport.PeerStats {
	if ps, ok := b.Transport.(transport.PeerStatser); ok {
		return ps.PeerStats()
	}
	return nil
}

// tcpReplay is tcp_cluster in-process: two cluster.New members over
// tcpbus.New on loopback, each behind api.NewClusterServer on its own
// listener and stepped by its own ticker, exactly as runClusterTCP wires
// one member per process.
func tcpReplay(e *env, sz sizes, seed uint64, tr *tracer) (*round, error) {
	r := &round{}
	t0 := time.Now()
	root, err := e.tempDir("tcp_replay")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	datasets, err := defaultDatasets(42)
	if err != nil {
		return nil, err
	}
	peers := map[string]string{}
	for _, id := range tcpMembers {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		peers[id] = addr
	}
	if tr != nil {
		// Spans count from the measured window; both members step at once.
		tr.paused.Store(true)
		tr.setWidth("loadgen.round", len(tcpMembers))
	}
	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		stops = nil
	}
	forget := e.clean.add(stopAll)
	defer func() { stopAll(); forget() }()

	client := keepAliveClient(e.c)
	defer client.CloseIdleConnections()
	var nodes []httpTarget
	var buses []*timedBus
	var stepMS []float64
	var stepMu sync.Mutex
	start := time.Now()
	clock := func() time.Duration { return time.Duration(float64(time.Since(start)) * tcpSpeedup) }
	vtick := time.Duration(float64(tcpTickReal) * tcpSpeedup)
	for i, id := range tcpMembers {
		bus, err := tcpbus.New(tcpbus.Options{Self: id, Listen: peers[id], Peers: peers, Clock: clock, Seed: 42})
		if err != nil {
			return nil, err
		}
		stops = append(stops, bus.Close)
		tb := newTimedBus(bus)
		buses = append(buses, tb)
		c, err := cluster.New(cluster.Config{
			Members: tcpMembers, Local: []string{id}, Bus: tb, WallClock: clock,
			Incarnation: bus.Incarnation(), KeyOffset: uint64(i), KeyStride: uint64(len(tcpMembers)),
			Dir: root, Journal: journalOptions(), Seed: 42, Tick: vtick, MemberTTL: tcpMemberTTL,
			Sched: sched.Config{Backfill: true},
			Tools: func(g *galaxy.Galaxy) error {
				if err := g.RegisterDefaultTools(); err != nil {
					return err
				}
				return wrapExecutors(g, []string{"bonito"}, tr, "cluster.step")
			},
		})
		if err != nil {
			return nil, err
		}
		stops = append(stops, func() { _ = c.Close() })
		for name, ds := range datasets {
			c.RegisterDataset(name, ds)
		}
		s := api.NewClusterServer(c)
		s.SetAsync(true)
		quit := make(chan struct{})
		ticked := make(chan struct{})
		go func() {
			defer close(ticked)
			tk := time.NewTicker(tcpTickReal)
			defer tk.Stop()
			for {
				select {
				case <-quit:
					return
				case <-tk.C:
					sp := tr.start("cluster.step", "loadgen.round", 0)
					t1 := time.Now()
					s.Tick()
					sp.end()
					stepMu.Lock()
					stepMS = append(stepMS, float64(time.Since(t1))/1e6)
					stepMu.Unlock()
				}
			}
		}()
		stops = append(stops, func() { close(quit); <-ticked })
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: s.Handler()}
		served := make(chan struct{})
		go func() {
			_ = hs.Serve(ln) // returns ErrServerClosed on Close
			close(served)
		}()
		stops = append(stops, func() { _ = hs.Close(); <-served })
		nodes = append(nodes, httpTarget{base: "http://" + ln.Addr().String(), client: client})
	}
	if err := tcpDrive(nodes, sz, t0, r, tr, selfCPU); err != nil {
		return nil, fmt.Errorf("tcp_cluster replay: %w", err)
	}
	view, err := inspect(nodes)
	if err != nil {
		return nil, fmt.Errorf("tcp_cluster replay: %w", err)
	}
	total := sz.TCPWarm + sz.TCPJobs
	view.fold(r, float64(total))
	for _, n := range nodes {
		var synced map[string]bool
		if _, err := n.post("/api/cluster/sync", "", &synced); err != nil {
			return nil, err
		}
	}
	stopAll()
	if err := auditCluster(root, total); err != nil {
		return nil, fmt.Errorf("tcp_cluster replay: %w", err)
	}
	stepMu.Lock()
	r.set("cluster.step_ms", medianOf(stepMS))
	stepMu.Unlock()
	var rtt []time.Duration
	for _, b := range buses {
		b.mu.Lock()
		rtt = append(rtt, b.rtt...)
		b.mu.Unlock()
	}
	if len(rtt) > 0 {
		r.set("cluster.steal_rtt_ms", durationSeries(rtt, time.Millisecond).median())
	}
	codecTimings(r, buses)
	return r, nil
}

// codecTimings times the transport codec on the messages this run sent.
func codecTimings(r *round, buses []*timedBus) {
	var enc, dec, size []float64
	for _, b := range buses {
		b.mu.Lock()
		for typ, body := range b.bodies {
			var raw []byte
			e := timeOp(200, func() { raw, _ = transport.EncodeBody(body) })
			d := timeOp(200, func() { _, _ = transport.DecodeBody(typ, raw) })
			enc, dec, size = append(enc, e/1e3), append(dec, d/1e3), append(size, float64(len(raw)))
		}
		b.mu.Unlock()
	}
	if len(enc) > 0 {
		r.set("transport.encode_us", medianOf(enc))
		r.set("transport.decode_us", medianOf(dec))
		r.set("transport.bytes_per_msg", medianOf(size))
	}
}
