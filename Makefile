# Developer entry points. `make check` is the gate CI runs: build, gofmt, vet
# and the full test suite under the race detector.

GO ?= go

# Native Go fuzzers as package:fuzzer pairs, and the time budget each gets
# under fuzz-short.
FUZZ_TARGETS ?= ./internal/toolxml:FuzzParseTool \
                ./internal/toolxml:FuzzExpandMacros \
                ./internal/galaxy:FuzzCheckParams \
                ./internal/journal:FuzzReplay \
                ./internal/journal:FuzzRecordCodec \
                ./internal/journal:FuzzFoldWalk \
                ./internal/workflow:FuzzBuildDAG \
                ./internal/smi:FuzzParseXML \
                ./internal/smi:FuzzSurveyCache \
                ./internal/bioseq:FuzzEditDistance \
                ./internal/bioseq:FuzzStats \
                ./internal/tools/racon:FuzzAddSequence \
                ./internal/tools/racon:FuzzMapReads \
                ./internal/tools/racon:FuzzFillRow \
                ./internal/tools/bonito:FuzzBasecall \
                ./internal/tools/bonito:FuzzCollapse \
                ./internal/transport/tcpbus:FuzzFrame \
                ./internal/sched:FuzzCycle
FUZZTIME     ?= 10s

.PHONY: check build build-cross fmt vet test test-race test-flake quick-golden test-crash test-journal test-workflow test-cluster test-transport test-tcp-transport hammer-api hammer-cluster hammer-transport fuzz-short bench obs-smoke

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

# test-flake reruns, ten times under the race detector, the four tests that
# used to fail intermittently on an unchanged tree: the cluster-scaling
# determinism check (a virtual-time kill read the journal flusher's
# wall-clock position), the API race hammer (its reader checked the ack
# count after a GET that predated the first POST), racon's allocation
# bound (a job borrowed a workspace per read segment, and the detector's
# sync.Pool drops a share of what is put back) and the journal's two-producer
# group commit (on a loaded host the second producer sometimes staged its
# first record after the first fsync, which seeded the integer batch EWMA at
# 1, where a quarter of a step toward batches of two truncated to nothing;
# TestGroupCommitTwoProducersAfterALoneRecord makes that interleaving certain,
# and the EWMA is now fixed-point).
test-flake:
	$(call run_selected,./internal/api,TestServerRaceHammer,10)
	$(call run_selected,./internal/experiments,TestClusterScalingDeterministic,10)
	$(call run_selected,./internal/tools/racon,TestRunAllocatesNoMatrixPerJob,10)
	$(call run_selected,./internal/journal,TestGroupCommitTwoProducers,10)

# build-cross keeps the code that only builds off amd64 building: bonito's
# Go-kernel stub for architectures without its AVX assembly and its Go
# collapse (collapseGo) for those without its AVX2 change masks, racon's Go
# row passes for architectures without its AVX2 ones, and bioseq's bytes.Count
# pair (gcCountPair) for those without its one-pass AVX2 G+C count.
build-cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

# quick-golden regenerates `gyanbench -quick -json` into a temporary file and
# fails on any byte that differs from testdata/gyanbench-quick.json. Every
# figure is deterministic virtual time, so a difference means a change moved
# what the tools or the engine compute, not how fast. When a change moves a
# figure on purpose, regenerate the golden with
#   go run ./cmd/gyanbench -quick -json > testdata/gyanbench-quick.json
# and explain the diff in review.
quick-golden:
	@out=$$(mktemp) || exit 1; trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/gyanbench -quick -json > "$$out" || exit 1; \
	diff -u testdata/gyanbench-quick.json "$$out" >&2 || { \
		echo "gyanbench -quick differs from testdata/gyanbench-quick.json (see the Makefile to regenerate)" >&2; exit 1; }

# test-crash replays the kill-and-failover scenario end to end: handler h1
# dies mid-workload with a torn record on disk, standby h2 recovers from the
# journal, and the audit pins zero lost jobs and zero double executions; then
# a handler that takes a dead handler's journal lock adopts and runs its
# queued job, and the differential recovery oracle (a journal written with
# the retired map records spliced back in recovers to the same report and the
# same jobs), and a job pinned to a device by the user's version tag still
# runs on that device after the crash; a job recovery fails for want of its
# dataset stays failed at the next recovery, and a compacted journal folds to
# the same job trails, record for record and run for run, as the journal it
# replaced, and a restarted server serves the same placement and trail for
# each job before and after a compaction; a job whose steal was retired
# before the crash stays stolen, the thief's, and never runs again; a kill
# the lifecycle refused on an open trail fails the job durably, and each
# record's inverse rebuilds the failure log, retry budget and newest run.
test-crash:
	$(call run_selected,./internal/experiments,TestCrashRecovery)
	$(call run_selected,./internal/galaxy,TestCrashMidWorkload|TestLockHolderAdoptsDeadHandlersJobs|TestRecoverSplicedMapRecords|TestRecoverKeepsDevicePin|TestRecoveredFailureIsDurable|TestSnapshotJournalIsTheFoldsInverse|TestRecoverKeepsAStolenJob|TestRecoverActsOnRefusedRecords|TestRecoverAppliesEachRecordsInverse)
	$(call run_selected,./internal/api,TestRecoveryEndpointAfterRestart)

# hammer-api is the -race hammer for the single server's real handler:
# concurrent POST /api/jobs of the http_jobs mix against every read endpoint
# and /metrics, twice; every POST must come back 201/ok
# and the completion counter must equal the number acknowledged.
hammer-api:
	$(call run_selected,./internal/api,TestServerRaceHammer,2)

# test-journal is the journal durability suite under the race detector: the
# one write pipeline behind its queue lock and file lock (strictly
# ticket-ordered segment files under concurrent appenders, group commit and
# backpressure, AppendAsync/AwaitDurable semantics where a crash between
# stage and flush must not report durable, watermark monotonicity under
# concurrent appenders, the flush-error latch, stats), snapshot compaction
# over rotated segments and over the segments a crash left behind it,
# Compact copying exactly what replay reads (over a snapshot, rotated
# segments, a torn tail and staged records) and refusing a corrupt snapshot
# without touching a file, a durable ack while a compaction is parked between
# its seal and its install, the directories a crash leaves at each step of
# the install, compactions racing appenders without stranding a record at or
# below the snapshot's last ticket, the torn-tail replay (the same
# after Open as before it), the incarnation epoch
# (strictly increasing, and refused before it wraps), the refusal of every
# layout and payload older versions wrote, the fold (rule table, retired
# kinds, interleaving invariance, no write-only record kind), the record
# codec against the JSON writer and over retired lease fields, and at the
# engine level
# the torn-tail crash-requeue scenario, the spliced-map-record recovery
# oracle, durable submits racing compaction without losing a job,
# concurrent submits sharing one fsync, and a refused record's ticket
# surviving a compaction.
JOURNAL_TESTS ?= TestSegmentFilesAreTicketOrdered|TestRotatedSnapshotCompaction|TestCompactCopiesWhatReplayReads|TestCompactRefusesACorruptSnapshot|TestDurableAppendReturnsDuringCompaction|TestCompactInstallCrashStates|TestAsyncDurable|TestWatermark|TestAdaptive|TestStatsCountsSegmentsAndStaged|TestGroupCommit|TestCrashTornTail|TestTornTailDoesNotPoisonLaterSegments|TestSnapshotSupersedesLeftoverSegments|TestSnapshotRacingAppendsKeepsLaterRecords|TestFlushError|TestEpochStrictlyIncreasing|TestOpenRefusesAnExhaustedEpoch|TestLegacyFormatIsRefused|TestReplayAfterOpenMatchesReplayBefore|TestFold|TestCodec
JOURNAL_GALAXY_TESTS ?= TestShardedCrash|TestRecoverSplicedMapRecords|TestSubmitRacingCompactionLosesNothing|TestConcurrentSubmitsShareAnFsync|TestRecoverActsOnRefusedRecords

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

# test-cluster is the multi-handler chaos suite: ring property tests (balance,
# bounded movement), the lockstep cluster.Sim (routing, stealing, survey,
# placement by the member's policy, metrics, a Node refusing keys it does not
# own and reporting its latched journal error), the kill -9 chaos scenario (one of three handlers dies with
# a torn journal tail; zero lost, zero double-run, partition rebalanced across
# both survivors in seniority order), the cluster API (503 once a member's
# journal has failed), the quick-mode scaling experiment, and gyan-server's
# flag check (a member takes -policy under -bus tcp). The by-name selections
# go through run_selected, so a renamed test fails the target instead of
# silently selecting nothing.
test-cluster:
	$(GO) test ./internal/cluster -v
	$(call run_selected,./internal/api,TestCluster)
	$(call run_selected,./internal/experiments,TestClusterScaling)
	$(call run_selected,./cmd/gyan-server,TestCheckModeFlags)

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
# /metrics or /api/jobs/{id}/trail answer non-200 or empty — the end-to-end
# check that the observability surface is wired, not just unit-tested.
obs-smoke:
	sh scripts/obs_smoke.sh

# bench runs the kernel micro-benchmarks. End-to-end and per-layer
# performance numbers come from `go run ./bench` (BENCHMARK.json).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .
