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
//	gyan-server -journal /var/lib/gyan/journal -handler main &
//	curl localhost:8080/api/recovery
//
// With -cluster-size N (N > 1) the server hosts a cluster.Sim instead — N
// members in one process on a simulated bus, stepped in lockstep virtual
// time: job ownership partitioned over a consistent-hash ring, idle handlers
// stealing queued work — and serves the cluster API:
//
//	gyan-server -cluster-size 3 &
//	curl localhost:8080/api/cluster
//	curl -X POST localhost:8080/api/cluster/jobs -d '{"tool":"racon","dataset":"alzheimers_nfl","params":{"scale":"0.01"}}'
//
// With -bus tcp the cluster spans processes: each gyan-server hosts one
// cluster.Node — the same member type the Sim runs N of — speaking the
// steal/lease/anti-entropy protocol over real sockets, wall-paced
// (-tick-real, -speedup) instead of lockstep, with a persistent member
// catalog fencing restarts by incarnation. One process per member, all
// sharing the -peers map and the -journal root (-cluster-size does not
// apply and is rejected):
//
//	gyan-server -bus tcp -member h0 -members h0,h1 \
//	    -peers h0=127.0.0.1:9000,h1=127.0.0.1:9001 \
//	    -journal /var/lib/gyan/net -addr 127.0.0.1:8080 &
//	gyan-server -bus tcp -member h1 -members h0,h1 \
//	    -peers h0=127.0.0.1:9000,h1=127.0.0.1:9001 \
//	    -journal /var/lib/gyan/net -addr 127.0.0.1:8081 &
//	curl localhost:8080/api/cluster/transport
//
// Each of the three modes rejects, at startup, any flag it would not use.
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
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		policy      = flag.String("policy", "pid", "multi-GPU allocation policy: pid, memory, utilization")
		seed        = flag.Uint64("seed", 42, "synthetic dataset seed")
		journalDir  = flag.String("journal", "", "job-state journal directory (empty disables durability)")
		asyncAck    = flag.Bool("async-durable", false, "let a submitted job start at journal stage time instead of after its fsync; the HTTP response still waits for the commit watermark (GET /api/recovery) to cover it")
		handler     = flag.String("handler", "main", "handler ID stamped on journal records and leases")
		leaseTTL    = flag.Duration("lease-ttl", galaxy.DefaultLeaseTTL, "heartbeat lease TTL; a standby may adopt this handler's jobs after it expires")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (CPU, heap, mutex profiles)")
		clusterSize = flag.Int("cluster-size", 1, "boot an in-process N-handler cluster (>1) instead of a single Galaxy; serves /api/cluster")
		handlerID   = flag.String("handler-id", "h", "handler ID prefix for cluster members (-cluster-size > 1): IDs are <prefix>0..<prefix>N-1")
		memberTTL   = flag.Duration("member-ttl", 0, "cluster membership lease TTL; a member whose renewals lapse this long is declared dead (0: 6 ticks under -cluster-size, 60 ticks under -bus tcp)")

		// Networked-cluster flags (-bus tcp): one OS process per member, the
		// cluster protocol carried over real sockets by internal/transport/tcpbus.
		busKind   = flag.String("bus", "sim", "cluster message bus: sim (in-process, lockstep virtual time) or tcp (one process per member, real sockets, wall-paced)")
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
	switch {
	case *busKind == "tcp":
		mode = "tcp"
	case *clusterSize > 1:
		mode = "cluster"
	}
	var err error
	switch {
	case *busKind != "sim" && *busKind != "tcp":
		err = fmt.Errorf("unknown -bus %q (want sim or tcp)", *busKind)
	case mode == "tcp" && *clusterSize > 1:
		err = fmt.Errorf("-bus tcp hosts exactly one member per process; -cluster-size %d needs -bus sim", *clusterSize)
	default:
		err = checkModeFlags(mode, set)
	}
	if err != nil {
		log.Fatal(err)
	}
	switch mode {
	case "tcp":
		err = runClusterTCP(tcpConfig{
			addr: *addr, member: *member, membersCSV: *members, peersCSV: *peers,
			listenBus: *listenBus, advertise: *advertise, journalDir: *journalDir,
			seed: *seed, leaseTTL: *leaseTTL, memberTTL: *memberTTL,
			speedup: *speedup, tickReal: *tickReal,
		})
	case "cluster":
		err = runCluster(*addr, *clusterSize, *handlerID, *seed, *journalDir, *leaseTTL, *memberTTL)
	default:
		err = run(*addr, *policy, *seed, *journalDir, *handler, *asyncAck, *leaseTTL, *pprofOn)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// commonFlags are consumed by every mode (-bus and -cluster-size select
// it); modeFlags names what each mode consumes beyond them.
var (
	commonFlags = []string{"bus", "cluster-size", "addr", "seed", "journal", "lease-ttl"}
	modeFlags   = map[string][]string{
		"single":  {"policy", "async-durable", "handler", "pprof"},
		"cluster": {"handler-id", "member-ttl"},
		"tcp":     {"member-ttl", "member", "members", "peers", "listen-bus", "advertise", "speedup", "tick-real"},
	}
)

// checkModeFlags rejects explicitly set flags the selected mode would
// silently drop: a server that accepts -pprof and mounts no profiler, or
// -policy memory and maps by PID, is misconfigured, not configured.
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

// runCluster boots a cluster.Sim of -cluster-size members in one process —
// each a full Galaxy with its own engine, scheduler, journal and ring view —
// and serves the stitched cluster API.
// With -journal set, every member journals durably under its own
// subdirectory of that path; without it, journals live in a throwaway
// temp directory.
func runCluster(addr string, size int, idPrefix string, seed uint64, journalDir string, leaseTTL, memberTTL time.Duration) error {
	c, err := cluster.NewSim(cluster.SimConfig{
		Handlers:              size,
		BaseID:                idPrefix,
		Dir:                   journalDir,
		DisableDurableSubmits: journalDir == "",
		LeaseTTL:              leaseTTL,
		Seed:                  seed,
		MemberTTL:             memberTTL,
		Sched:                 sched.Config{Backfill: true},
	})
	if err != nil {
		return err
	}
	if err := registerWorkloads(c, seed); err != nil {
		return err
	}
	s := api.NewClusterServer(c)
	log.Printf("gyan-server cluster listening on %s (%d handlers %s0..%s%d, journals under %q)",
		addr, size, idPrefix, idPrefix, size-1, journalDir)
	return http.ListenAndServe(addr, s.Handler())
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
	leaseTTL   time.Duration
	memberTTL  time.Duration
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

// registerWorkloads loads them onto a Sim or a Node.
func registerWorkloads(c interface{ RegisterDataset(string, any) }, seed uint64) error {
	datasets, err := loadWorkloads(seed)
	for name, ds := range datasets {
		c.RegisterDataset(name, ds)
	}
	return err
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
		LeaseTTL:    cfg.leaseTTL,
		Seed:        cfg.seed,
		Tick:        vtick,
		MemberTTL:   cfg.memberTTL,
		Sched:       sched.Config{Backfill: true},
	})
	if err != nil {
		return err
	}
	if err := registerWorkloads(c, cfg.seed); err != nil {
		return err
	}
	s := api.NewClusterServer(c)
	s.SetAsync(true)
	go func() {
		for range time.Tick(cfg.tickReal) {
			s.Tick()
		}
	}()
	log.Printf("gyan-server member %q (incarnation %d) listening on %s, bus on %s, peers %v, speedup %gx",
		cfg.member, bus.Incarnation(), cfg.addr, bus.Addr(), peerAddrs, cfg.speedup)
	return http.ListenAndServe(cfg.addr, s.Handler())
}

func run(addr, policyName string, seed uint64, journalDir, handler string, asyncAck bool, leaseTTL time.Duration, pprofOn bool) error {
	var pol core.Policy
	switch policyName {
	case "pid":
		pol = core.PolicyPID
	case "memory":
		pol = core.PolicyMemory
	case "utilization":
		pol = core.PolicyUtilization
	default:
		return fmt.Errorf("unknown policy %q", policyName)
	}

	// Datasets come first: recovery needs them by name to requeue journaled
	// jobs, and the API registers the same instances afterwards.
	datasets, err := loadWorkloads(seed)
	if err != nil {
		return err
	}

	gopts := []galaxy.Option{galaxy.WithPolicy(pol)}
	if journalDir != "" {
		// Replay whatever a previous incarnation left behind before opening
		// the journal for writing (Open starts a fresh segment, so the read
		// must come first). A missing directory replays as empty; a directory
		// locked by a live handler refuses to open — that handler owns it.
		recs, rerr := journal.Replay(journalDir)
		// The journal batches concurrent durable submits into shared fsyncs
		// across journal.DefaultShards independent stripe pipelines, pacing each
		// flusher by the fsync cost it measures. A sync ack waits for its
		// batch to reach disk; with -async-durable Submit returns at stage
		// time and the api handlers await the commit watermark before they
		// answer, so the fsync overlaps the run.
		j, err := journal.Open(journalDir, journal.Options{DurableSubmits: true})
		if err != nil {
			return err
		}
		gopts = append(gopts,
			galaxy.WithJournal(j, handler),
			galaxy.WithLeaseTTL(leaseTTL),
			galaxy.WithWallClock(time.Now))
		if asyncAck {
			gopts = append(gopts, galaxy.WithAsyncDurable())
		}
		g := galaxy.New(nil, gopts...)
		if err := g.RegisterDefaultTools(); err != nil {
			return err
		}
		if err := g.RegisterGenomicsTools(); err != nil {
			return err
		}
		if len(recs) > 0 || rerr != nil {
			rep, err := g.Recover(recs, rerr, galaxy.RecoverOptions{
				Datasets:     datasets,
				RestartDelay: leaseTTL + time.Second,
				AdoptExpired: true,
				WallNow:      time.Now().UnixNano(),
			})
			if err != nil {
				return err
			}
			g.Run() // drain the requeued work before accepting new jobs
			log.Printf("recovered %d journal records: %d ok, %d errored, %d dead-lettered, %d requeued, %d adopted, %d orphaned",
				rep.Records, rep.Completed, rep.Errored, rep.DeadLettered, rep.Requeued, rep.Adopted, rep.Orphaned)
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
		// Heartbeat on a wall-clock ticker so the lease trail keeps proving
		// this handler alive through idle stretches (virtual time does not
		// advance without work).
		interval := leaseTTL / 3
		if interval <= 0 {
			interval = time.Second
		}
		go func() {
			for range time.Tick(interval) {
				g.WriteLease()
			}
		}()
		log.Printf("journaling to %s as handler %q (lease TTL %v, heartbeat every %v)",
			journalDir, handler, leaseTTL, interval)
		return serve(addr, policyName, g, datasets, pprofOn)
	}

	g := galaxy.New(nil, gopts...)
	if err := g.RegisterDefaultTools(); err != nil {
		return err
	}
	if err := g.RegisterGenomicsTools(); err != nil {
		return err
	}
	return serve(addr, policyName, g, datasets, pprofOn)
}

func serve(addr, policyName string, g *galaxy.Galaxy, datasets map[string]any, pprofOn bool) error {
	s := api.NewServer(g)
	for name, ds := range datasets {
		s.RegisterDataset(name, ds)
	}
	handler := s.Handler()
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
	log.Printf("gyan-server listening on %s (policy=%s)", addr, policyName)
	return http.ListenAndServe(addr, handler)
}
