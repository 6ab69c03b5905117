# Developer entry points. `make check` is the gate CI runs: build, gofmt, vet
# and the full test suite under the race detector.

GO ?= go

# Native Go fuzzers as package:fuzzer pairs, and the time budget each gets
# under fuzz-short.
FUZZ_TARGETS ?= ./internal/toolxml:FuzzParseTool \
                ./internal/toolxml:FuzzExpandMacros \
                ./internal/journal:FuzzReplay \
                ./internal/workflow:FuzzBuildDAG \
                ./internal/smi:FuzzParseXML \
                ./internal/bioseq:FuzzEditDistance \
                ./internal/tools/racon:FuzzAddSequence \
                ./internal/transport/tcpbus:FuzzFrame
FUZZTIME     ?= 10s

.PHONY: check build fmt vet test test-race test-flake test-crash test-journal test-workflow test-cluster test-transport test-tcp-transport hammer-api hammer-cluster hammer-transport fuzz-short bench obs-smoke

check: build fmt vet test-race

build:
	$(GO) build ./...

# fmt fails on any file gofmt would rewrite (the bench's build directory is
# not source).
fmt:
	@out=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	if [ -n "$$out" ]; then echo "gofmt -l:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# test-race runs the suite under the race detector; the concurrency tests in
# internal/galaxy (submit/kill/retry from foreign goroutines) only bite here.
# The experiment harness replays full simulations, so under the detector's
# overhead the package needs more than go test's default 10m budget.
test-race:
	$(GO) test -race -timeout 30m ./...

# Targets that select tests by name go through run_selected: a name that no
# longer exists would select nothing and pass, so it first fails on any
# alternative of the pattern that matches no test. (Arguments: package,
# pattern, optional -count; every selected run is under -race.)
define run_selected
	@list=$$($(GO) test $(1) -list '$(2)') || exit 1; \
	for p in $$(echo '$(2)' | tr '|' ' '); do \
		echo "$$list" | grep '^Test' | grep -Eq "$$p" || { echo "$(1): no test matches $$p" >&2; exit 1; }; \
	done
	$(GO) test -race -count=$(or $(3),1) $(1) -run '$(2)' -v
endef

# test-flake reruns, ten times under the race detector, the three tests that
# used to fail intermittently on an unchanged tree — the async-durable ack
# (Job.DurableTicket was stamped outside any lock a Jobs() clone takes), the
# cluster-scaling determinism check (a virtual-time kill read the journal
# flusher's wall-clock position) and the API race hammer (its reader checked
# the ack count after a GET that predated the first POST) — and the
# submit-against-snapshot hammer that pins the first fix.
test-flake:
	$(call run_selected,./internal/api,TestAsyncDurableAckWaitsForWatermark|TestServerRaceHammer,10)
	$(call run_selected,./internal/galaxy,TestAsyncDurableSubmitRacesSnapshots,10)
	$(call run_selected,./internal/experiments,TestClusterScalingDeterministic,10)

# test-crash replays the kill-and-failover scenario end to end: handler h1
# dies mid-workload with a torn record on disk, standby h2 recovers from the
# journal, and the audit pins zero lost jobs and zero double executions; then
# the differential recovery oracle (a journal with the retired map records
# spliced back in recovers to the same report and the same jobs).
test-crash:
	$(call run_selected,./internal/experiments,TestCrashRecovery)
	$(call run_selected,./internal/galaxy,TestCrashMidWorkload|TestLeaseExpiry|TestRecoverSplicedMapRecords)

# hammer-api is the -race hammer for the single server's real handler:
# concurrent POST /api/jobs of the http_jobs mix against every read endpoint,
# /metrics and the lease heartbeat, twice; every POST must come back 201/ok
# and the completion counter must equal the number acknowledged.
hammer-api:
	$(call run_selected,./internal/api,TestServerRaceHammer,2)

# test-journal is the journal durability suite under the race detector: the
# per-stripe crash table (each stripe torn independently and two at once),
# strictly ticket-ordered shard files under concurrent appenders, and the
# torn-tail replay, staged-loss isolation, async-durable ack
# semantics (crash between stage and flush must not acknowledge), watermark
# monotonicity under concurrent flushers, the flush-error latch, the
# read-only flat layout and its epoch rule, the fold (rule table, retired
# kinds, interleaving invariance, no write-only record kind), and at the engine
# level the sharded crash-requeue scenario and the spliced-map-record recovery
# oracle.
JOURNAL_TESTS ?= TestSharded|TestShardFileIsTicketOrdered|TestAsyncDurable|TestWatermark|TestAdaptive|TestShardStats|TestGroupCommit|TestCrashTornTail|TestFlushError|TestFlatLayout|TestLegacyUpgrade|TestFold
JOURNAL_GALAXY_TESTS ?= TestAsyncDurable|TestWithAsyncDurable|TestShardedCrash|TestRecoverSplicedMapRecords

test-journal:
	$(call run_selected,./internal/journal,$(JOURNAL_TESTS))
	$(call run_selected,./internal/galaxy,$(JOURNAL_GALAXY_TESTS))

# test-workflow exercises the DAG engine end to end: graph validation and
# scheduling in internal/workflow, the galaxy-level DAG surface (fan-out,
# fan-in, fail-fast, locality placement, fair-share), the
# crash-mid-workflow recovery scenario (exactly-once resume through the
# journal), recovery of a journal written before the second failure policy
# and the in-flight cap were retired, and the locality-aware-beats-blind
# regression on the genomics pipeline experiment.
test-workflow:
	$(GO) test ./internal/workflow -v
	$(call run_selected,./internal/galaxy,TestDAG|TestWorkflow|TestCrashMidWorkflow|TestRecoverRestoresFinishedWorkflow|TestRecoverOldJournal)
	$(call run_selected,./internal/experiments,TestGenomicsPipelineLocalityWins)

# test-cluster is the multi-handler chaos suite: ring property tests
# (balance, bounded movement), the lockstep cluster.Sim (routing, stealing,
# survey, metrics, a Node refusing keys it does not own), the kill -9 chaos
# scenario (one of three handlers dies with a torn journal tail; zero lost,
# zero double-run, partition rebalanced across both survivors in seniority
# order), the cluster API, and the quick-mode scaling experiment. The
# by-name selections go through run_selected, so a renamed test fails the
# target instead of silently selecting nothing.
test-cluster:
	$(GO) test ./internal/cluster -v
	$(call run_selected,./internal/api,TestCluster)
	$(call run_selected,./internal/experiments,TestClusterScaling)

# hammer-cluster is CI's -race hammer: concurrent submit/kill/steal/scrape
# across three members while the Sim steps, twice.
hammer-cluster:
	$(call run_selected,./internal/cluster,TestClusterRaceHammer,2)

# test-transport is the message-level chaos suite: the simulated bus and its
# fault plan, kill -9 between every two-phase steal boundary crossed with
# drop/duplicate/reorder/delay faults, lease-table membership (slow-but-alive
# never evicted, dead detected by expiry alone, staggered detection with
# divergent ring views, an unreadable dead journal deferring the
# declaration), retry-exhaustion aborts, the online anti-entropy repair of
# orphaned prepares, and a -race hammer of concurrent steals over the lossy
# bus (hammer-transport is CI's twice-over form of the last).
TRANSPORT_TESTS ?= TestTransportChaos|TestSlowButAlive|TestStealRetry|TestOrphanedPrepare|TestLeaseExpiryDetects|TestStaggeredDetection|TestDeadReplayError|TestRejoinRefuses

test-transport:
	$(GO) test ./internal/transport ./internal/faults -v
	$(call run_selected,./internal/cluster,$(TRANSPORT_TESTS))

hammer-transport:
	$(call run_selected,./internal/cluster,TestTransportChaosRaceHammer,2)

# test-tcp-transport is the real-socket suite: the wire framing and member
# catalog unit tests, the transport conformance suite run against tcpbus
# (the same suite the simulated bus passes), and the multi-process loopback
# chaos scenario — two gyan-server processes over real TCP, kill -9 of the
# thief mid-steal, catalog-fenced rejoin at a bumped incarnation, and the
# cross-process AuditJournals exactly-once audit (0 lost / 0 doubles /
# seniority preserved). Set GYAN_AUDIT_DIR to keep the audit JSON artifact.
test-tcp-transport:
	$(GO) test -race ./internal/transport/tcpbus ./internal/transport/transporttest -v
	$(GO) test -race ./cmd/gyan-server -run 'TestLoopbackTCPClusterChaos' -v -timeout 20m

# fuzz-short gives each native fuzzer a small deterministic budget — a smoke
# pass over the seed corpus plus a few seconds of mutation, cheap enough for
# every CI run.
fuzz-short:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; f=$${t##*:}; \
		echo "fuzzing $$pkg $$f for $(FUZZTIME)"; \
		$(GO) test $$pkg -run='^$$' -fuzz="^$$f$$" -fuzztime=$(FUZZTIME) || exit 1; \
	done

# obs-smoke boots a real gyan-server, pushes one job through, and fails if
# /metrics or /api/trace/{id} answer non-200 or empty — the end-to-end check
# that the observability surface is wired, not just unit-tested.
obs-smoke:
	sh scripts/obs_smoke.sh

# bench runs the kernel micro-benchmarks. End-to-end and per-layer
# performance numbers come from `go run ./bench` (BENCHMARK.json).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .
