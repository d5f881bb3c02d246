GO ?= go

.PHONY: build test race bench bench-json bench-ingest-json bench-live bench-live-gate bench-watch bench-sim-json bench-cluster bench-store bench-store-gate fuzz check fmt vet clean crash-test race-ingest race-live race-watch race-cluster race-store alert-quality coverage reference paper loc

# Label recorded in BENCH_core.json for a bench-json run; override like
#   make bench-json BENCH_LABEL="after: shared key plan"
BENCH_LABEL ?= local run

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-ingest is the focused race gate for the durable ingest path
# (mirrors the CI job): collector server + WAL under -race.
race-ingest:
	$(GO) test -race -count=1 ./internal/collector/... ./internal/wal/

# race-live is the focused race gate for the live query engine: concurrent
# ingest + queries + epoch rollover under -race, plus the collector fan-in.
race-live:
	$(GO) test -race -count=1 ./internal/live/ ./internal/collector/

# race-watch is the focused race gate for the sensitivity-ops watcher:
# concurrent ingest, ticks and /v1/alerts + /v1/report polling under -race.
race-watch:
	$(GO) test -race -count=1 ./internal/watch/

# race-cluster is the focused race gate for the scatter-gather cluster:
# concurrent ingest + coordinator queries + node kill/re-warm under -race.
race-cluster:
	$(GO) test -race -count=1 ./internal/cluster/

# race-store is the focused race gate for the tiered storage path: the
# cold-tier compactor/scanner, the windowed live engine that merges with
# it, and the composed node that wires and restarts both, under -race.
race-store:
	$(GO) test -race -count=1 ./internal/store/ ./internal/live/ ./internal/node/

# alert-quality runs the ground-truth precision/recall gate: owasim runs
# with scheduled incident regimes, the watcher scores against the schedule,
# and precision and recall must both reach 0.9.
alert-quality:
	$(GO) test -count=1 -run 'TestAlertQualityOnGroundTruth' -v ./internal/watch/

# coverage runs the bootstrap-band coverage gate: over a reduced ensemble of
# clean owasim realizations, the nominal-90% plain band at the default 6 h
# block must hold the estimator's own ensemble mean no more than 0.03 less
# often than the re-timed bootstrap it replaced did (EXPERIMENTS.md,
# "ext-coverage"; the full table is `go run ./cmd/experiments -run
# ext-coverage`).
coverage:
	$(GO) test -count=1 -run 'TestCoverageGate' -v ./internal/experiments/

# reference reruns every experiment at the reference flags and diffs the
# stdout against the committed results_small.txt (78 s wall on a 2-vCPU
# Xeon, go run's build included). The cmd/experiments test checks every
# section but ext-coverage in seconds; this is the whole run.
reference:
	$(GO) run ./cmd/experiments -scale small -seed 1 | diff -u results_small.txt -

# paper reruns every experiment at paper scale (95 s wall on a 2-vCPU Xeon,
# go run's build included) into a temporary directory and diffs the stdout
# against the committed results_paper.txt and the CSVs against results/.
paper:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/experiments -scale paper -seed 1 -outdir "$$tmp/results" > "$$tmp/stdout.txt" && \
	diff -u results_paper.txt "$$tmp/stdout.txt" && diff -ru results "$$tmp/results"

# loc prints the non-test Go lines of every package directory and their
# total: the size figure CHANGES.md and ROADMAP.md quote.
loc:
	@$(GO) list -f '{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}' ./... | xargs wc -l | \
		awk -v root="$(CURDIR)/" '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(root, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# crash-test runs the kill-and-recover acceptance test: build a real
# sensd, stream beacons at it, SIGKILL it mid-write, recover the WAL and
# assert every acked record survived with at most one torn tail.
crash-test:
	$(GO) test -race -count=1 -run 'TestKillAndRecover|TestRecoveredCurveIsByteIdentical' -v \
		./internal/collector/ ./internal/wal/

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-json appends a labelled estimator-core benchmark run to
# BENCH_core.json (committed, so the perf trajectory is diffable), every
# benchmark at GOMAXPROCS 1 and 2: the estimator splits its work over the
# workers, so the two rows separate the algorithm from the parallelism.
bench-json:
	$(GO) test -bench=. -benchmem -cpu 1,2 -run=^$$ ./internal/core/ | \
		$(GO) run ./cmd/benchjson -label "$(BENCH_LABEL)" -prev BENCH_core.json > BENCH_core.json.tmp
	mv BENCH_core.json.tmp BENCH_core.json

# bench-ingest-json appends a labelled ingest data-plane benchmark run
# (codecs, collector, WAL append, the batch load's TBIN partition build,
# slicers) to BENCH_ingest.json.
bench-ingest-json:
	$(GO) test -bench='Decode|Encode|Ingest|WALAppend|PartitionTBIN|UserMedians|AssignQuartiles|Slicers' \
		-benchmem -run=^$$ ./internal/telemetry/ ./internal/collector/ ./internal/wal/ ./internal/pipeline/ | \
		$(GO) run ./cmd/benchjson -label "$(BENCH_LABEL)" -prev BENCH_ingest.json > BENCH_ingest.json.tmp
	mv BENCH_ingest.json.tmp BENCH_ingest.json

# bench-live appends a labelled live query-engine benchmark run to
# BENCH_live.json: cached vs dirty vs full-batch recompute, the dirty
# plain, mode=normalized and ci=1 queries under advancing and backfill arrivals,
# the sliding (never-seen, stateless view) and pinned (delta-maintained)
# windowed queries over a fake cold tier, engine append with and without concurrent
# query load, and collector-level ingest with the live fan-in attached
# (BenchmarkIngestTBIN rides along as the same-machine PR 4 baseline the
# acceptance bound compares against).
bench-live:
	$(GO) test -bench='BenchmarkLive|BenchmarkIngestTBIN$$' -benchmem -run=^$$ \
		./internal/live/ ./internal/collector/ | \
		$(GO) run ./cmd/benchjson -label "$(BENCH_LABEL)" -prev BENCH_live.json > BENCH_live.json.tmp
	mv BENCH_live.json.tmp BENCH_live.json

# bench-live-gate is the regression gate on the committed live trajectory:
# rerun the dirty-query (plain, plain and normalized under advancing
# arrivals, and ci=1 under advancing and backfill arrivals) and
# sliding-window benchmarks and fail if any one's ns/op regressed more than
# 25% against the last run recorded in BENCH_live.json. CI runs this.
bench-live-gate:
	$(GO) test -bench='BenchmarkLiveQuery|BenchmarkLiveWindowSliding' -benchmem -run=^$$ ./internal/live/ | \
		$(GO) run ./cmd/benchjson -against BENCH_live.json \
			-names BenchmarkLiveQueryDirty,BenchmarkLiveQueryDirtyPlain/advancing,BenchmarkLiveQueryDirtyNormalized/advancing,BenchmarkLiveQueryDirtyCI/advancing,BenchmarkLiveQueryDirtyCI/backfill,BenchmarkLiveWindowSliding -require-baseline

# bench-watch appends a labelled watcher benchmark run to BENCH_watch.json:
# the clean (cached, zero-alloc) tick vs a full re-evaluation tick — the
# committed record of the incremental machinery's win.
bench-watch:
	$(GO) test -bench='BenchmarkWatchTick' -benchmem -run=^$$ ./internal/watch/ | \
		$(GO) run ./cmd/benchjson -label "$(BENCH_LABEL)" -prev BENCH_watch.json > BENCH_watch.json.tmp
	mv BENCH_watch.json.tmp BENCH_watch.json

# bench-sim-json appends a labelled workload-simulator benchmark run to
# BENCH_sim.json: owasim generating the end-to-end benchmark's dataset
# (6 days, 200+200 users, cut off at 320 000 records) and one small day,
# and the discrete-event queue alone.
bench-sim-json:
	$(GO) test -bench='BenchmarkRunTo|BenchmarkRunOneDay|BenchmarkScheduleAndRun' -benchmem -run=^$$ \
		./internal/owasim/ ./internal/des/ | \
		$(GO) run ./cmd/benchjson -label "$(BENCH_LABEL)" -prev BENCH_sim.json > BENCH_sim.json.tmp
	mv BENCH_sim.json.tmp BENCH_sim.json

# bench-cluster appends a labelled scale-out benchmark run to
# BENCH_cluster.json (full-HTTP ingest at 1 vs 4 nodes on modeled block
# devices, scatter-gather cached and dirty query paths with p99), then
# gates the committed claims: >= 3x aggregate ingest at 4 nodes and a
# cached scatter-gather p99 within 10x of the single-node cached query
# (~169ns in BENCH_live.json).
CLUSTER_BENCHTIME ?= 3x
bench-cluster:
	{ $(GO) test -bench='BenchmarkClusterIngest' -benchmem -run=^$$ \
		-benchtime=$(CLUSTER_BENCHTIME) -timeout 20m ./internal/cluster/ && \
	  $(GO) test -bench='BenchmarkClusterQuery' -benchmem -run=^$$ \
		-timeout 20m ./internal/cluster/ ; } | tee bench_cluster.out | \
		$(GO) run ./cmd/benchjson -label "$(BENCH_LABEL)" -prev BENCH_cluster.json > BENCH_cluster.json.tmp
	mv BENCH_cluster.json.tmp BENCH_cluster.json
	@awk ' \
		/BenchmarkClusterIngest\/nodes=1/  { one = $$3 } \
		/BenchmarkClusterIngest\/nodes=4/  { four = $$3 } \
		/BenchmarkClusterQueryCached/ { for (i = 1; i < NF; i++) if ($$(i+1) == "p99-ns/op") p99 = $$i } \
		END { \
			if (one == "" || four == "" || p99 == "") { print "bench-cluster: missing benchmark lines"; exit 1 } \
			ratio = one / four; \
			printf "bench-cluster: ingest scaling 1->4 nodes: %.2fx, cached query p99: %.0f ns\n", ratio, p99; \
			if (ratio < 3)    { print "bench-cluster: FAIL: ingest scaling below 3x"; exit 1 } \
			if (p99 > 1690)   { print "bench-cluster: FAIL: cached p99 above 10x single-node (1690 ns)"; exit 1 } \
		}' bench_cluster.out
	@rm -f bench_cluster.out

# bench-store appends a labelled tiered-storage benchmark run to
# BENCH_store.json (compaction throughput, full and windowed cold scans,
# the dirty hot+cold windowed query), then gates the zone-map claim: the
# windowed scan must have pruned at least 50% of the visible blocks.
bench-store:
	$(GO) test -bench='BenchmarkStore' -benchmem -run=^$$ ./internal/store/ | \
		tee bench_store.out | \
		$(GO) run ./cmd/benchjson -label "$(BENCH_LABEL)" -prev BENCH_store.json > BENCH_store.json.tmp
	mv BENCH_store.json.tmp BENCH_store.json
	@awk ' \
		/BenchmarkStoreColdScanWindowed/ { for (i = 1; i < NF; i++) if ($$(i+1) == "prune-%") pct = $$i } \
		END { \
			if (pct == "") { print "bench-store: missing windowed scan line"; exit 1 } \
			printf "bench-store: windowed scan pruned %.2f%% of blocks\n", pct; \
			if (pct < 50) { print "bench-store: FAIL: zone maps pruned under 50%"; exit 1 } \
		}' bench_store.out
	@rm -f bench_store.out

# bench-store-gate is the regression gate on the committed tiered-storage
# trajectory: rerun the dirty windowed hot+cold query benchmark and fail
# if its ns/op regressed more than 25% against the last run recorded in
# BENCH_store.json. CI runs this.
bench-store-gate:
	$(GO) test -bench='BenchmarkStoreQueryWindowDirty' -benchmem -run=^$$ ./internal/store/ | \
		$(GO) run ./cmd/benchjson -against BENCH_store.json -names BenchmarkStoreQueryWindowDirty -require-baseline

# fuzz runs each telemetry, merge-kernel, column-codec, cluster-partial
# and cold-block fuzz target, and the normalized-bootstrap,
# incremental-vs-stateless finisher, nearest-sample kernel and event-queue
# differential ones, for a short bounded burst. The finisher target's
# inputs cost tens of milliseconds each, and the kernel and event-queue
# targets find new coverage often (minimizing it stalled a 20 s queue burst
# after 15 s), so their new-coverage minimization is capped to keep the
# burst exploring.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run=^$$ -fuzz='^FuzzRecordRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/telemetry/
	$(GO) test -run=^$$ -fuzz='^FuzzReaderNoCrash$$' -fuzztime=$(FUZZTIME) ./internal/telemetry/
	$(GO) test -run=^$$ -fuzz='^FuzzTBINAppendMatchesWriter$$' -fuzztime=$(FUZZTIME) ./internal/telemetry/
	$(GO) test -run=^$$ -fuzz='^FuzzReaderResetMatchesFresh$$' -fuzztime=$(FUZZTIME) ./internal/telemetry/
	$(GO) test -run=^$$ -fuzz='^FuzzMergeColumns$$' -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=^$$ -fuzz='^FuzzNormalizedReplicateMatchesBatch$$' -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=^$$ -fuzz='^FuzzIncrementalMatchesBatch$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/core/
	$(GO) test -run=^$$ -fuzz='^FuzzNearestSweep$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/core/
	$(GO) test -run=^$$ -fuzz='^FuzzPartitionMatchesRecords$$' -fuzztime=$(FUZZTIME) ./internal/pipeline/
	$(GO) test -run=^$$ -fuzz='^FuzzColumnRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/colcodec/
	$(GO) test -run=^$$ -fuzz='^FuzzPartialRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/collector/api/
	$(GO) test -run=^$$ -fuzz='^FuzzPartialMergeNoCrash$$' -fuzztime=$(FUZZTIME) ./internal/cluster/
	$(GO) test -run=^$$ -fuzz='^FuzzBlockRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/store/
	$(GO) test -run=^$$ -fuzz='^FuzzQueueMatchesHeap$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/des/

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# check is the pre-merge gate: formatting, static analysis, and the full
# test suite under the race detector.
check: fmt vet race

clean:
	$(GO) clean ./...
