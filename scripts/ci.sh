#!/usr/bin/env bash
# Tier-1 CI gate: formatting, vet, build, and the full test suite
# under the race detector. The fault-tolerance path (internal/dist,
# internal/fault) is heavily concurrent — scatter-gather goroutines,
# breaker state, RPC drain — so -race is mandatory here, not optional.
# The last steps smoke-run the benchmark harnesses (one iteration
# each), which also hold the quantized-scan and tuned-serving recall
# floors.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# go vet's asmdecl pass checks internal/vec/kernel_amd64.s against the
# Go declarations: a wrong frame size or argument offset fails here.
go vet ./...
go build ./...
# Cross-build: the kernel files are split by build tag (amd64 && !purego
# / the complement); every platform must end up with exactly one
# implementation of l2Rows/dotRows, l2Gather/dotGather and Prefetch —
# the bounded L2 entry points included: l2Rows and l2Gather take the
# cut bound on both tiers, and on amd64 an infinite bound branches to
# the unbounded assembly loop inside them, not to a second entry point.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/vec/
# Every suite step carries an explicit per-package -timeout: the race
# detector does not find deadlocks, and without one a hung test (the
# tuneMu deadlock sat in the tune loop's lifecycle test for the 10-minute
# package default) fails late. With it the run dies in minutes, with
# a goroutine dump naming the two sides.
go test -race -timeout 5m ./...
# Intra-query fan-out must degrade to serial cleanly: the whole suite
# also runs single-threaded, where the worker pool has width 1, the
# flat scan's rule picks one part, and every fan-out a test forces
# wider (part counts under SetScanParts) runs its parts on the caller.
GOMAXPROCS=1 go test -timeout 3m ./...
# The portable kernel tier on this (AVX) host: the purego tag swaps the
# assembly for the portable loops under SquaredL2/Dot, and the packages
# whose numbers flow through them run their suites again. The kernel
# tests (tier equality, guard pages, path consistency) run on both
# tiers and under -race.
go test -tags purego -count=1 -timeout 5m ./internal/vec/ ./internal/index/... ./internal/kmeans/ ./internal/quant/
go test -race -tags purego -count=1 -timeout 3m -run 'TestKernel|TestScorerPathConsistency' ./internal/vec/
# Bounded scans are exact: Flat.Search, the windowed Flat.SearchWindow
# (a range radius, alone and past a page cursor on a tie) and the
# ivfflat list scan, whose kernels stop reading a row once its partial
# L2 sum passes the collector's k-th distance (or the radius), return
# the ids and distance bits of a collector fed ScoreAt — on tie-heavy
# data with duplicated rows, under L2 and Mahalanobis, at part counts
# 1/2/8 under SetScanParts, with and without an allowlist and a deletion mask — on both
# tiers and under -race. A range scan split over every worker count,
# with and without a predicate, returns the exact ranking cut at its
# radius.
go test -race -count=1 -timeout 3m -run 'TestBoundedScanMatchesReference|TestFlatSearchRange' ./internal/index/
# Scans split only onto idle cores: every exact scan holds a pool token
# while it runs, and a full-column scan cuts one more part per token it
# finds free. With every token held a 100 000-row scan runs in one part,
# starts no goroutine and allocates what a one-part scan does, with the
# bytes of the idle pool's split; two searches at once on two free
# cores scan in one part each, a lone one in two; the forced part-count
# sweeps keep their results and counters; and the pool runs every task
# once, nested and bounded. Tokens are shared state, so -race.
go test -race -count=1 -timeout 3m -run 'TestScanSplitsOnlyOntoIdleCores|TestConcurrentScansRunInOnePart|TestFlatParallelDeterminism|TestFlatParallelStats|TestIVFParallelDeterminism|TestIVFParallelStats' ./internal/index/ ./internal/core/
go test -race -count=1 -timeout 3m ./internal/pool/
go test -race -tags purego -count=1 -timeout 3m -run 'TestBoundedScanMatchesReference' ./internal/index/
# Distributed read path = single-node engine + merge: four loopback
# net/rpc shards hosting collections must return the exact hits (ids
# and distance bits) of one collection for filtered forced-exact
# queries under l2 and cosine, and keep recall@10 >= 0.95 on their
# HNSW default plan; the vdbms-shard binary serves a -dir database,
# answers one filtered search and exits 0 on SIGTERM. Shard fan-out,
# RPC and drain are concurrent, so both run under -race.
go test -race -count=1 -timeout 3m -run 'TestDistributedEqualsSingleNode' ./internal/dist/
go test -race -count=1 -timeout 3m -run 'TestShardBinaryDirSmoke' ./cmd/vdbms-shard/
# Crash-recovery smoke under the race detector: the kill -9 harness
# (subprocess inserting with fsync=always, SIGKILLed mid-stream, then
# recovered) plus the torn-tail and checkpoint/recover equivalence
# tests — the durable write path's acceptance gate — and the compaction
# twin: every seeded history, compacted, answers as its uncompacted
# twin does, also after Save→Load, Checkpoint→Recover and a crash
# between the pre- and post-compaction checkpoints. These already ran
# inside the full suite above; running them again under -race with a
# dedicated -count=1 keeps the gate explicit and cache-proof.
go test -race -count=1 -timeout 3m -run 'TestCrashRecoveryKill9|TestRecoverTornTail|TestPropertyCheckpointRecoverEquivalence|TestCompactMatchesUncompactedTwin' ./internal/core/
# Bounded-memory smoke under the race detector: a database held to a
# budget far smaller than its data must walk the degradation ladder
# (evict its float column to the mmap tier, keep answering correctly,
# shed work-carrying requests with 503 past the budget) instead of
# growing without bound. Gates the memory-tiered serving path the same
# way the kill -9 harness gates the WAL. A durable collection evicts
# onto its checkpoint: it writes nothing right after one and keeps one
# checkpoint after more writes, answers byte-identically mapped and
# after Recover, and races evictions against queries and logged writes;
# Checkpoint and Save allocate no copy of a 20 000 x 128 column in
# either tier; an eviction during a CreateIndex build is refused and,
# after it, maps the column under the installed index. A mapping a
# promotion retires is unmapped by the first write with no build
# running and no reader pinned: 20 evict/insert cycles hold at most one
# mapping, a reader pinned across a promotion keeps scoring its epoch,
# and a build that read a mapping retired mid-build installs an index
# rebound onto the heap column. No pin outlives a request: with a page
# cursor held on a 20 000 x 128 hnsw collection, 200 UpdateVectors
# patch the column in place and allocate under 1 MiB.
go test -race -count=1 -timeout 3m -run 'TestBoundedMemoryLadderSmoke' .
go test -race -count=1 -timeout 3m -run 'TestShedRefusesWork|TestEvictByteEquivalence|TestEvictConcurrent|TestDurableEvictMapsCheckpoint|TestSnapshotWritesCopyNoColumn|TestCreateIndexDuringEviction|TestRetiredMappingsReleased|TestPinnedReaderKeepsRetiredMapping|TestRetiredDuringBuildRebinds|TestPageCursorHoldsNoPin' ./internal/server/ ./internal/core/
# One builder per collection: a CreateIndex racing a parked staleness
# rebuild, a drift swap or a second CreateIndex never runs beside it
# (a counting index sees one build in flight), each call returns its
# own build's error or nil when superseded, and a Compact mid-build has
# CreateIndex wait for the rebuild. Builder, writers and waiters share
# the collection, so -race. The index serves the rows it covers while
# the collection grows: searches race a writer on hnsw, each hit an
# issued, undeleted id at its exact distance and each insert read back
# from the tail, and on ivfflat, which files each insert into its lists
# and reads it back through the index; an insert that reallocates the
# column rebinds an index no vector update has made stale, also after a
# delete.
go test -race -count=1 -timeout 3m -run 'TestOneBuildInFlight|TestCreateIndexSupersededByCompact|TestSearchDuringBackgroundBuild|TestWriteWhileSearchHNSW|TestWriteWhileSearchIVF|TestInsertReallocRebindsIndex' ./internal/core/
# Recall loop gates. The tuner must converge on a degraded index
# (coarse IVF, target_recall=0.95 -> a trusted frontier resolving a
# parameter cheaper than the ladder maximum that still meets the
# target), and drift re-selection must swap index recipes through the
# background builder without blocking concurrent searches. The loop
# runs one goroutine (none after Disable or Close), one exact scan per
# sample, a rotating ladder subset, and ignores rows inserted after a
# sample was served. All pinned under -race because the loop, builder,
# and readers share the collection. The knob a target resolves to is
# the one the index family's registry entry declares: a target on
# ivfsq/ivfadc resolves nprobe, every family's declared knob moves its
# distance comps from the bottom to the top of the ladder, and the
# README capability matrix is rendered from the same declarations.
go test -race -count=1 -timeout 3m -run 'TestTunerConvergesDegradedIndex|TestDriftBuildGraphReselect|TestDriftDebounceAndCooldown|TestKnobResolutionPrecedence|TestTargetRecallTunesDeclaredKnob|TestDeclaredKnobMovesWork|TestReadmeCapabilityMatrix|TestTuneLoopLifecycle|TestAuditBackgroundLoop|TestRecallCloseLeavesNoGoroutine|TestRecallPassOneExactScanPerSample|TestRecallLadderRotates|TestRecallIgnoresLaterInserts|TestFrontierIgnoresLaterInserts' ./internal/core/ ./internal/index/
# Compiled-predicate gates. The differential tests hold the per-id
# matcher and the column-at-a-time evaluator to a reference evaluator
# over every Kind x Op, and every forced plan (its flat scans at the
# part count the rule picks; part counts 1/2/8 under SetScanParts are
# swept in internal/index), with and without deletions, to
# filter-then-brute-force. The race
# test runs predicate searches, range queries and paged queries against
# a writer that reallocates the columns under them — the read path takes
# no lock per row, so -race is the only thing standing between a
# missed happens-before edge and production. The deadlock regression
# holds a recall pass in flight across an EnableRecall. Plan selection: the
# default policy, warmed on a 1/10/50 % mix, must plan the three buckets
# brute_force / single_stage / post_filter on its measured inputs, and
# an unfiltered search must probe at the query's own ef.
go test -race -count=1 -timeout 3m ./internal/filter/
# The forced plans also run on snapshots whose index covers a prefix
# (hnsw, ivfflat; compacted and not; deletes in prefix and tail), every
# ANN operator serves the tail, the audit on a tail-heavy snapshot
# matches truth within 0.01, and a tail past the crossover plans
# brute_force. Range and paging are two fields of the one search
# request: a range keeps a row exactly at its radius and no further
# one, excludes deleted rows and runs as brute_force; paging with After
# at page sizes 1, 7 and 10 reproduces the exact (dist, id) order with
# no duplicate or gap — ties across page boundaries, a cursor deleted
# or compacted away included — and ANN pages never repeat an id or go
# backwards; a radius or cursor the engine cannot serve is ErrWindow.
go test -race -count=1 -timeout 3m -run 'TestForcedPlansMatchReference|TestMixedSelectivityKeepsPostFilter|TestPredicateReadPathRace|TestExhaustivePlansRecordFilterStage|TestTuneReconfigureDuringPass|TestAuditDisableNeverDeadlocks|TestAuditRecallOnTailHeavySnapshot|TestPagingReproducesExactOrder|TestRangeBoundary|TestWindowValidation|TestSearchRangeRespectsDeletes|TestBatchAndIterator' ./internal/core/
go test -race -count=1 -timeout 3m -run 'TestEveryANNOperatorServesTail|TestTailFlipsToBruteForce|TestSearchRange|TestIteratorPagesExact|TestIteratorANNPagination|TestIteratorValidation|TestIteratorWithPredicate' ./internal/executor/ ./internal/planner/
go test -race -count=1 -timeout 3m -run 'TestWindowKeepsItsSlice' ./internal/topk/
go test -race -count=1 -timeout 3m -run 'TestUnfilteredSearchKeepsEf' ./internal/executor/
# One query record: the trace, the stage histograms, the per-index
# counters and the tracker are all read from it, so over every forced
# plan, planned, batch, multi-vector and range queries the traces' stage
# durations and comps equal what the histograms and counters gained; the
# recall loop's exact scan and replay publish nothing; each query of a
# /batch is counted as the search it answers; and a tail scanned beside a
# quantized probe calibrates as full-precision and attribute samples of
# its own.
go test -race -count=1 -timeout 3m -run 'TestRecordReconciles|TestReplayPublishesNothing|TestRecordTrace|TestTailCalibratesApart' ./internal/executor/
go test -race -count=1 -timeout 3m -run 'TestBatchQueriesAreCounted' ./internal/core/
go test -race -count=1 -timeout 3m -run 'TestFilterOperandCoercion|TestSearchRangeAndBatchAndIterator|ExampleCollection_Search_rangePages' .
# Graph traversal gates. The candidate pool against the map-based
# oracle (hits and per-query counts, every predicate shape) on tie-heavy
# grid graphs and, in TestBeamSearchFloatSweep, on the benchmark's
# 20 000-row HNSW at ef 16/64/256 with and without an allowlist; the
# pooled scratch shared by eight goroutines over graphs of two sizes
# with a panicking filter thrown in, 100 000 searches on one scratch;
# then the families on top of it: graphs built edge for edge as the
# pre-PR 16 traversal built them (TestBuildIdentity), and per-query
# stats with at least one comp per node visited (TestGraphStatsAgree);
# the tree forest's hits pinned to the hashes of the kdtree and rptree
# packages it replaced (TestHitIdentity); every graph family's hits
# pinned to those of its own serving code before the six shared one
# graph.Index (TestGraphHitIdentity); flat's and the IVF variants' hits
# and per-query work counters (comps, buckets, partitions, rows cut)
# pinned to those of their own scan loops before they shared one
# candidate scan (TestScanHitIdentity); and every registered family's
# hits unchanged after a Remap onto a copied column
# (TestGraphRemapIdentity). The first line runs the whole
# graph package, the sweep included. The scratch pool is the only state
# searches share, so -race.
go test -race -count=1 -timeout 5m ./internal/index/graph/
go test -race -count=1 -timeout 3m -run 'TestBuildIdentity|TestGraphStatsAgree|TestHitIdentity|TestGraphHitIdentity|TestScanHitIdentity|TestGraphRemapIdentity' ./internal/index/ ./internal/index/hnsw/ ./internal/index/nsw/ ./internal/index/nsg/ ./internal/index/knng/ ./internal/index/tree/
# Parallel HNSW construction: at GOMAXPROCS 2 and 8 the build searches
# nodes four at a time on helpers holding pool tokens and commits them in
# id order, re-searching any whose reads a commit changed. The graph must
# be the serial one edge for edge: the pinned build and hit hashes, the
# hits after a Remap, every batch width against width 1 (tiny graphs,
# m = 2, naive selection, every metric) and the staleness rule itself;
# and no helper or token may outlive a build, two builds at once
# included, while a build under a saturated pool runs serially. The
# helpers share the graph, the round hand-over and the scratch pool with
# the builder, so -race.
for procs in 2 8; do
    GOMAXPROCS=$procs go test -race -count=1 -timeout 5m \
        -run 'TestBuildIdentity|TestGraphHitIdentity|TestGraphRemapIdentity|TestSpeculativeBuildMatchesSerial|TestStaleRule|TestBuildReleasesHelpers' \
        ./internal/index/ ./internal/index/hnsw/
done
# Parallel k-means: Lloyd passes fan points over the pool, each point
# scoring every centroid in one kernel call cut at its distance to the
# centroid it held, centroid sums split by dimension and seeding chunks
# cut at their largest D^2. Centroids, assignment and inertia must keep
# the bits pinned before any of that (every IVF list, PQ/OPQ/RQ
# codebook, SPANN posting and dist partition rests on them) at
# GOMAXPROCS 1, 2 and 8 under -race, and on the portable kernel tier.
for procs in 1 2 8; do
    GOMAXPROCS=$procs go test -race -count=1 -timeout 5m -run 'TestTrainIdentity' ./internal/kmeans/
done
go test -tags purego -count=1 -timeout 3m -run 'TestTrainIdentity' ./internal/kmeans/
# Request path gates. Search, batch and insert bodies are decoded by a
# hand-written pass that must agree with encoding/json on every input —
# fuzzed differentially, seeded with the benchmark's bodies. Pooled
# vectors must not outlive their response: they are poisoned with NaN
# on release while eight goroutines search and insert. A cancelled or
# timed-out search must stop within one scan block, beam expansion,
# inverted list, hash bucket or tree leaf on the caller's goroutine,
# leave no goroutine behind and feed nothing to the statistics; a scan
# reads its deadline off the clock, so it stops even before the
# context's timer has run (on one busy CPU it runs only once the scan
# yields). All shared-state tests, so -race.
# Index options are fuzzed through the engine: a registered family, one
# of its declared keys or an arbitrary one, any value, any metric, built
# on 200 x 8 rows — the build must fail with index.ErrOption or
# index.ErrMetric, or return at most k distinct ids, within a deadline
# (the seeds put every declared key at its bound and one past it).
# Search bodies are fuzzed through the server: any body sent to a
# 200-row hnsw collection answers 200 or 4xx within a second, and a 200
# carries at most k distinct ids, each one the collection issued, in
# (dist, id) order, within its radius and past its cursor.
go test -run '^$' -fuzz '^FuzzDecodeSearchBody$' -fuzztime 10s ./internal/server/
go test -run '^$' -fuzz '^FuzzDecodeInsertBody$' -fuzztime 10s ./internal/server/
go test -run '^$' -fuzz '^FuzzIndexOptions$' -fuzztime 10s ./internal/index/
go test -run '^$' -fuzz '^FuzzSearchRequest$' -fuzztime 10s ./internal/server/
# Persistence inputs and VQL are fuzzed for panics and for allocations
# sized by an unchecked count: a WAL record payload (decoded, then
# replayed onto a fresh collection), a WAL segment through wal.Scan, a
# snapshot file through Load and Recover (seeded with the pre-ids v3
# file and a fresh Save), and a VQL statement. Minimizing one new
# snapshot input takes thousands of Load+Recover runs, so it is capped.
go test -run '^$' -fuzz '^FuzzWALRecord$' -fuzztime 10s ./internal/core/
go test -run '^$' -fuzz '^FuzzSnapshotFile$' -fuzztime 10s -fuzzminimizetime 100x ./internal/core/
go test -run '^$' -fuzz '^FuzzWALScan$' -fuzztime 10s ./internal/wal/
go test -run '^$' -fuzz '^FuzzVQL$' -fuzztime 10s ./internal/vql/
go test -race -count=1 -timeout 3m -run 'TestPooledVectorsAreNotRetained|TestStoppedSearchStatus' ./internal/server/
go test -race -count=1 -timeout 3m -run 'TestFlatStopsWithinABlock|TestScanStopsAtItsDeadline|TestSearchStopsWithinABucket|TestSearchStopsWithin|TestSplitIVFProbeStopsWithinAList|TestCancelledQueryStopsAndRecordsNothing|TestCancelledSearchIsNotObserved|TestSearchContextLeavesNoGoroutines|TestSearchesStopAtTheirDeadline|TestScanSplitsOnlyOntoIdleCores|TestConcurrentScansRunInOnePart' \
    . ./internal/index/ ./internal/index/hnsw/ ./internal/index/ivf/ ./internal/executor/ ./internal/core/
# The six graph families and the allowlist build read the query's
# deadline off the clock too: on one CPU, with the context's timer not
# yet run, a probe or a build whose deadline passes mid-way returns
# context.DeadlineExceeded instead of its hits.
GOMAXPROCS=1 go test -count=1 -timeout 3m -run 'TestSearchesStopAtTheirDeadline|TestScanStopsAtItsDeadline' ./internal/executor/ ./internal/index/
# One request type from the wire to the engine: the bodies the benchmark
# sends, a search result and the stats document keep their exact JSON;
# weighted_sum weights reach the engine over HTTP and a query without
# one weight per vector is an error (400), not a panic; a stopped
# /batch answers 499/504 like a stopped search (TestStoppedSearchStatus
# above covers both routes); a range and a page reach /search as body
# fields, and a radius or cursor the engine cannot serve is a 400, on
# /batch too.
go test -race -count=1 -timeout 3m -run 'TestWireFormatGolden|TestWeightedSumOverHTTP|TestStatsShowCalibration|TestWindowedSearchRoute' ./internal/server/
# Nothing a request says sizes an allocation past the data: a k of 2^33
# over HTTP on a 200-row collection returns its 200 rows (search, forced
# exact scan, post-filter, /batch), a body past the server's limit is a
# 413 on every route that reads one, and an index option outside its
# family's declared table (2^33 neighbours, tables or trees; an
# undeclared key) is a 400 before any build starts. No integer body
# field at 2^33 (k, ef, nprobe, alpha, rerank_k, the retired
# parallelism key) allocates more than twice what answering every row
# of a 20 000-row ivfflat collection does, and a body still carrying
# "parallelism" answers /search and /batch as it would without it.
go test -race -count=1 -timeout 3m -run 'TestHugeKReturnsEveryRow|TestOversizedBodyIs413|TestIndexOptionsRefused|TestSearchBodyCostBoundedByRows|TestRetiredParallelismKeyIsSkipped' ./internal/server/
go test -race -count=1 -timeout 3m -run 'TestWeightedSumNeedsOneWeightPerVector' .
# Multi-vector queries admit rows as single-vector search does: on the
# exact entity scan and on hnsw candidate generation, a deleted row or
# one failing the filters does not count toward its entity's score, and
# an entity with none left is not returned.
go test -race -count=1 -timeout 3m -run 'TestMultiVectorAdmitsLiveFilteredRows' ./internal/core/
# Request path smoke: the decoder against encoding/json on the
# ann_search body, and one loopback round trip.
go test -run '^$' -bench 'BenchmarkDecodeSearchBody|BenchmarkServeSearch' -benchtime 1x ./internal/server/
# Knob propagation end to end: HTTP body -> SearchRequest -> executor
# options -> index params, layered overrides, and the X-Vdbms-Plan
# response header that reports the executed plan + resolved knobs.
go test -race -count=1 -timeout 3m -run 'TestPlanHeaderAndKnobPropagation' ./internal/server/
# Adaptive planning overhead: resolving knobs through the tuned
# frontier must cost <= 5% versus pinning the same parameter
# statically. A timing gate, so it runs without -race (the race
# detector's ~10x slowdown would drown the 5% signal).
go test -count=1 -timeout 3m -run 'TestAdaptivePlanningOverhead' ./internal/core/
# Delete cost: a delete copies the deletion mask word by word, so the
# per-delete time of deleting half a collection may grow at most 2x
# from 20 000 to 80 000 rows (medians of three runs, best of three
# attempts so one slow run on a busy host does not fail it); and the insert and
# update WAL encoders allocate once per record. A timing gate, so it
# runs without -race.
go test -count=1 -timeout 3m -run 'TestDeleteCostScaling|TestWALEncodeOneAllocation' ./internal/core/
# Fuzz smoke for the top-k split/merge metamorphic oracle (split across
# N collectors + Merge == one collector), so the corpus keeps growing.
go test -run '^$' -fuzz FuzzMergeEquivalence -fuzztime 5s ./internal/topk/
go test -run '^$' -bench BenchmarkSearch -benchtime 1x ./internal/obs/
# Kernel smoke: every (metric, dimension) shape through the per-row,
# block, portable and gather (shuffled ids) paths once.
go test -run '^$' -bench BenchmarkScoreBlock -benchtime 1x ./internal/vec/
# Graph traversal smoke: the benchmark's HNSW at ef 16/64/256, with and
# without an allowlist, serial and parallel, one probe each.
go test -run '^$' -bench BenchmarkBeamSearch -benchtime 1x ./internal/index/graph/
# Block-evaluator smoke: 20 000 rows, int64 range predicate, ns/row.
go test -run '^$' -bench BenchmarkCompiledPredicateScan -benchtime 1x ./internal/filter/
# Metrics documentation lint: every vdbms_* metric family declared in
# internal/obs/metrics.go must appear in the README metrics reference
# table, so the exported surface can never silently outgrow its docs.
missing=0
for m in $(grep -o '"vdbms_[a-z_]*"' internal/obs/metrics.go | tr -d '"' | sort -u); do
    if ! grep -q "$m" README.md; then
        echo "metric $m is not documented in README.md" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "add the missing metrics to the README metrics reference table" >&2
    exit 1
fi
# Benchmark harness smoke, one iteration each, so a panic in a harness
# cannot land unnoticed. The recall floors live in the benchmarks: the
# sq8 compressed scan with exact re-rank and the tuned serving path
# (only a 0.95 recall target, resolved through the frontier) each fail
# below recall@10 0.95. Recall is measured outside the timed loop, so
# one iteration checks the same number a full run reports.
go test -run '^$' -bench 'BenchmarkQuantScan/sq8' -benchtime 1x ./internal/index/
go test -run '^$' -bench 'BenchmarkPlanTuned/tuned' -benchtime 1x -timeout 30m ./internal/core/
go test -run '^$' -bench 'BenchmarkFlatScan' -benchtime 1x ./internal/index/
go test -run '^$' -bench 'BenchmarkMixedReadWrite|BenchmarkWALInsert|BenchmarkMemTierSearch' -benchtime 1x ./internal/core/
# Cold mmap tier: a durable 60 000 x 128 hnsw collection evicted onto
# its checkpoint, with its mapping's pages and the checkpoint's page
# cache dropped before each round of default-plan and brute-force
# queries (Linux only; both acts touch only the benchmark's own files).
go test -run '^$' -bench 'BenchmarkMemTierCold' -benchtime 1x ./internal/core/
