// Command gyan-server serves the GPU-aware Galaxy instance over HTTP — the
// reproduction of Galaxy's web interface (step 1 of the paper's Fig. 2).
//
//	gyan-server -addr :8080 &
//	curl localhost:8080/api/tools
//	curl -X POST localhost:8080/api/jobs -d '{"tool":"racon","dataset":"alzheimers_nfl","params":{"scale":"0.01"}}'
//	curl localhost:8080/api/smi
//
// With -journal the server becomes crash-safe: every job state transition
// is appended to a write-ahead log, and on startup the directory is
// replayed so acknowledged jobs survive a kill -9:
//
//	gyan-server -journal /var/lib/gyan/journal -handler main &
//	kill -9 %1
//	gyan-server -journal /var/lib/gyan/journal -handler standby &
//	curl localhost:8080/api/recovery
//
// The server first takes the directory's lock, which a live handler holds
// until it exits (a second server on it refuses to start) and the kernel
// drops when it dies. Holding the lock proves every previous owner dead, so
// the server requeues every job the directory left unfinished, adopting
// the ones another handler owned.
//
// With -bus tcp the server is one member of a handler cluster that spans
// processes: it hosts one cluster.Node — the member type cluster.Sim runs N
// of in the experiments — speaking the steal/lease/anti-entropy protocol
// over real sockets, wall-paced (-tick-real, -speedup), with job ownership
// partitioned over a consistent-hash ring and a persistent member catalog
// fencing restarts by incarnation. One process per member, all sharing the
// -peers map and the -journal root; a submit is answered 202 once its
// record is fsynced, or 503 once the member's journal has failed, and the
// member's tick loop runs it:
//
//	gyan-server -bus tcp -member h0 -members h0,h1 \
//	    -peers h0=127.0.0.1:9000,h1=127.0.0.1:9001 \
//	    -journal /var/lib/gyan/net -addr 127.0.0.1:8080 &
//	gyan-server -bus tcp -member h1 -members h0,h1 \
//	    -peers h0=127.0.0.1:9000,h1=127.0.0.1:9001 \
//	    -journal /var/lib/gyan/net -addr 127.0.0.1:8081 &
//	curl localhost:8080/api/cluster/transport
//
// Each of the two modes rejects, at startup, any flag it would not use.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"gyan/internal/api"
	"gyan/internal/cluster"
	"gyan/internal/core"
	"gyan/internal/galaxy"
	"gyan/internal/journal"
	"gyan/internal/sched"
	"gyan/internal/transport/tcpbus"
	"gyan/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		policy     = flag.String("policy", "pid", "multi-GPU allocation policy: pid, memory, utilization")
		seed       = flag.Uint64("seed", 42, "synthetic dataset seed")
		journalDir = flag.String("journal", "", "job-state journal directory (empty disables durability)")
		handler    = flag.String("handler", "main", "handler ID stamped on journal records")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (CPU, heap, mutex profiles)")
		memberTTL  = flag.Duration("member-ttl", 0, "cluster membership lease TTL; a member whose renewals lapse this long is declared dead (0: 60 ticks)")

		// Networked-cluster flags (-bus tcp): one OS process per member, the
		// cluster protocol carried over real sockets by internal/transport/tcpbus.
		busKind   = flag.String("bus", "sim", "sim serves one Galaxy; tcp makes this process one member of a cluster (real sockets, wall-paced)")
		member    = flag.String("member", "", "this process's member ID (-bus tcp)")
		members   = flag.String("members", "", "comma-separated full membership, e.g. h0,h1 (-bus tcp)")
		peers     = flag.String("peers", "", "comma-separated id=host:port bus addresses for every member (-bus tcp)")
		listenBus = flag.String("listen-bus", "", "bus listen address (-bus tcp); defaults to this member's -peers entry")
		advertise = flag.String("advertise", "", "bus address peers dial; defaults to the resolved listen address")
		speedup   = flag.Float64("speedup", 120, "virtual seconds per real second (-bus tcp)")
		tickReal  = flag.Duration("tick-real", 50*time.Millisecond, "real interval between cluster steps (-bus tcp)")
	)
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	mode := "single"
	if *busKind == "tcp" {
		mode = "tcp"
	}
	var err error
	if *busKind != "sim" && *busKind != "tcp" {
		err = fmt.Errorf("unknown -bus %q (want sim or tcp)", *busKind)
	} else {
		err = checkModeFlags(mode, set)
	}
	if err != nil {
		log.Fatal(err)
	}
	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		log.Fatal(err)
	}
	if mode == "tcp" {
		err = runClusterTCP(tcpConfig{
			addr: *addr, member: *member, membersCSV: *members, peersCSV: *peers,
			listenBus: *listenBus, advertise: *advertise, journalDir: *journalDir,
			seed: *seed, memberTTL: *memberTTL, policy: pol,
			speedup: *speedup, tickReal: *tickReal,
		})
	} else {
		err = run(*addr, pol, *seed, *journalDir, *handler, *pprofOn)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// commonFlags are consumed by both modes (-bus selects it); modeFlags names
// what each mode consumes beyond them.
var (
	commonFlags = []string{"bus", "addr", "seed", "journal", "policy"}
	modeFlags   = map[string][]string{
		"single": {"handler", "pprof"},
		"tcp":    {"member-ttl", "member", "members", "peers", "listen-bus", "advertise", "speedup", "tick-real"},
	}
)

// checkModeFlags rejects explicitly set flags the selected mode would
// silently drop: a server that accepts -pprof and mounts no profiler, or
// -handler and stamps its member ID instead, is misconfigured, not
// configured.
func checkModeFlags(mode string, set []string) error {
	var ignored []string
	for _, name := range set {
		if !slices.Contains(commonFlags, name) && !slices.Contains(modeFlags[mode], name) {
			ignored = append(ignored, "-"+name)
		}
	}
	if len(ignored) > 0 {
		return fmt.Errorf("%s: not used in %s mode (besides the common flags it takes -%s)",
			strings.Join(ignored, ", "), mode, strings.Join(modeFlags[mode], ", -"))
	}
	return nil
}

// tcpConfig carries the -bus tcp flag set.
type tcpConfig struct {
	addr       string
	member     string
	membersCSV string
	peersCSV   string
	listenBus  string
	advertise  string
	journalDir string
	seed       uint64
	memberTTL  time.Duration
	policy     core.Policy
	speedup    float64
	tickReal   time.Duration
}

// loadWorkloads generates the paper's three datasets by name.
func loadWorkloads(seed uint64) (map[string]any, error) {
	reads, err := workload.AlzheimersNFL(seed)
	if err != nil {
		return nil, err
	}
	small, err := workload.AcinetobacterPittii(seed)
	if err != nil {
		return nil, err
	}
	large, err := workload.KlebsiellaPneumoniae(seed)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"alzheimers_nfl":             reads,
		"acinetobacter_pittii":       small,
		"klebsiella_pneumoniae_ksb2": large,
	}, nil
}

// runClusterTCP boots ONE cluster.Node in this process and wires it to its
// peers over TCP: the same member the simulated bus carries, on real
// sockets. Every member journals under its own subdirectory of the SHARED
// -journal root (survivors replay a dead peer's journal from there), and
// the member catalog under <journal>/catalog persists each member's
// incarnation so a kill -9'd process rejoins under a bumped one.
//
// Virtual time is wall-paced: a background ticker steps the cluster every
// -tick-real, mapping real elapsed time times -speedup onto the virtual
// clock — so a job with minutes of virtual runtime completes in seconds of
// wall time, while leases and backoffs keep their virtual arithmetic.
func runClusterTCP(cfg tcpConfig) error {
	if cfg.member == "" {
		return fmt.Errorf("-bus tcp requires -member")
	}
	if cfg.journalDir == "" {
		return fmt.Errorf("-bus tcp requires -journal: survivors replay a dead peer's journal from the shared root")
	}
	var ids []string
	for _, id := range strings.Split(cfg.membersCSV, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	if len(ids) < 2 {
		return fmt.Errorf("-bus tcp requires -members with at least two IDs, got %q", cfg.membersCSV)
	}
	self := slices.Index(ids, cfg.member)
	if self < 0 {
		return fmt.Errorf("-member %q not in -members %v", cfg.member, ids)
	}
	peerAddrs := map[string]string{}
	for _, kv := range strings.Split(cfg.peersCSV, ",") {
		if kv = strings.TrimSpace(kv); kv == "" {
			continue
		}
		id, addr, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("bad -peers entry %q (want id=host:port)", kv)
		}
		peerAddrs[id] = addr
	}
	for _, id := range ids {
		if peerAddrs[id] == "" {
			return fmt.Errorf("-peers missing an address for member %q", id)
		}
	}
	if cfg.listenBus == "" {
		cfg.listenBus = peerAddrs[cfg.member]
	}

	cat, err := tcpbus.OpenCatalog(filepath.Join(cfg.journalDir, "catalog"))
	if err != nil {
		return err
	}
	start := time.Now()
	clock := func() time.Duration {
		return time.Duration(float64(time.Since(start)) * cfg.speedup)
	}
	bus, err := tcpbus.New(tcpbus.Options{
		Self: cfg.member, Listen: cfg.listenBus, Advertise: cfg.advertise,
		Peers: peerAddrs, Catalog: cat, Clock: clock, Seed: cfg.seed,
	})
	if err != nil {
		return err
	}

	// Protocol cadence in virtual terms: one tick of virtual time passes per
	// real -tick-real, so renewals go out roughly once per real tick. The
	// default member TTL tolerates ~60 missed ticks (3 real seconds at the
	// default -tick-real) before declaring death: unlike the lockstep sim,
	// a real socket can spend a full jittered reconnect backoff delivering
	// nothing, and a TTL shorter than that window declares live peers dead
	// on every transient — at worst mutually, right after a restart.
	vtick := time.Duration(float64(cfg.tickReal) * cfg.speedup)
	if cfg.memberTTL <= 0 {
		cfg.memberTTL = 60 * vtick
	}
	c, err := cluster.New(cluster.Config{
		Members:     ids,
		Local:       []string{cfg.member},
		Bus:         bus,
		WallClock:   clock,
		Incarnation: bus.Incarnation(),
		KeyOffset:   uint64(self),
		KeyStride:   uint64(len(ids)),
		Dir:         cfg.journalDir,
		Seed:        cfg.seed,
		Tick:        vtick,
		MemberTTL:   cfg.memberTTL,
		Sched:       sched.Config{Backfill: true, Policy: cfg.policy},
	})
	if err != nil {
		return err
	}
	datasets, err := loadWorkloads(cfg.seed)
	if err != nil {
		return err
	}
	for name, ds := range datasets {
		c.RegisterDataset(name, ds)
	}
	s := api.NewClusterServer(c)
	go func() {
		for range time.Tick(cfg.tickReal) {
			s.Tick()
		}
	}()
	log.Printf("gyan-server member %q (incarnation %d) listening on %s, bus on %s, peers %v, speedup %gx",
		cfg.member, bus.Incarnation(), cfg.addr, bus.Addr(), peerAddrs, cfg.speedup)
	return http.ListenAndServe(cfg.addr, s.Handler())
}

func run(addr string, pol core.Policy, seed uint64, journalDir, handler string, pprofOn bool) error {
	datasets, err := loadWorkloads(seed)
	if err != nil {
		return err
	}

	gopts := []galaxy.Option{galaxy.WithPolicy(pol)}
	var recs []journal.Record
	var rerr error
	if journalDir != "" {
		// Take the directory's lock first: a directory locked by a live
		// handler refuses to open — that handler owns it — and once the lock
		// is held no previous owner can append another record, so the replay
		// below reads everything any of them acknowledged. Open's fresh
		// segment replays as empty. The journal batches concurrent durable
		// submits into shared fsyncs; a submit returns once the commit
		// watermark has passed it.
		j, err := journal.Open(journalDir, journal.Options{})
		if err != nil {
			return err
		}
		recs, rerr = journal.Replay(journalDir)
		gopts = append(gopts, galaxy.WithJournal(j, handler))
	}
	g := galaxy.New(nil, gopts...)
	if err := g.RegisterDefaultTools(); err != nil {
		return err
	}
	if err := g.RegisterGenomicsTools(); err != nil {
		return err
	}
	// Datasets are registered once, on the engine, before recovery: the
	// requeue re-resolves journaled names from the same registry the API
	// resolves requests from.
	for name, ds := range datasets {
		g.RegisterDataset(name, ds)
	}
	if journalDir != "" {
		if len(recs) > 0 || rerr != nil {
			rep, err := g.Recover(recs, rerr, galaxy.RecoverOptions{RestartDelay: time.Second})
			if err != nil {
				return err
			}
			g.Run() // drain the requeued work before accepting new jobs
			log.Printf("recovered %d journal records: %d ok, %d errored, %d dead-lettered, %d requeued, %d adopted",
				rep.Records, rep.Completed, rep.Errored, rep.DeadLettered, rep.Requeued, rep.Adopted)
			if rep.CorruptTail != "" {
				log.Printf("journal had a torn tail (expected after a crash): %s", rep.CorruptTail)
			}
			// Compact the recovered state into a snapshot: this seals torn
			// segments away so they are not re-reported on every restart,
			// and bounds the next replay.
			if err := g.SnapshotJournal(); err != nil {
				log.Printf("journal compaction after recovery failed: %v", err)
			}
		}
		log.Printf("journaling to %s as handler %q", journalDir, handler)
	}
	return serve(addr, pol, g, pprofOn)
}

func serve(addr string, pol core.Policy, g *galaxy.Galaxy, pprofOn bool) error {
	handler := api.NewServer(g).Handler()
	if pprofOn {
		// The API handler is a bare ServeMux, not http.DefaultServeMux, so
		// the pprof routes are mounted explicitly rather than via the
		// package's init side effect.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("pprof enabled at /debug/pprof/")
	}
	log.Printf("gyan-server listening on %s (policy=%s)", addr, pol)
	return http.ListenAndServe(addr, handler)
}
