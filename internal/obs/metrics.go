package obs

// Shared metric handles. Every metric name the engine emits is
// declared here, in one place, against the Default registry;
// subsystems import the handle rather than re-registering by name.
var (
	// Search path (internal/core via the public Collection API).
	// Latency is labeled by collection so regressions are attributable
	// to the workload that causes them (same pattern as
	// DistShardLatency); unlabeled sums come from aggregating in the
	// scraper.
	SearchTotal   = Default().NewCounter("vdbms_search_total", "Completed Collection.Search calls.")
	SearchErrors  = Default().NewCounter("vdbms_search_errors_total", "Collection.Search calls that returned an error.")
	SearchLatency = Default().NewHistogramVec("vdbms_search_latency_seconds", "End-to-end Collection.Search latency by collection.", "collection", nil)
	SearchPlans   = Default().NewCounterVec("vdbms_search_plan_total", "Searches by executed plan.", "plan")

	// Stage-level latency decomposition (internal/executor,
	// internal/core, internal/dist): where each millisecond of a query
	// goes, independent of tracing. Stages: plan, filter, index_probe
	// (a range query's scan included), post_filter, topk_merge,
	// shard_fanout, wal_commit_wait.
	SearchStageSeconds = Default().NewHistogramVec("vdbms_search_stage_seconds", "Query latency decomposed by pipeline stage.", "stage", nil)

	// The recall loop (internal/core recall.go + internal/stats): a
	// reservoir of live queries is periodically replayed against an
	// exact scan on a pinned snapshot; the gauge is the latest audited
	// recall@k per collection, the operational answer to "what recall
	// are we actually serving". The counters and the histogram count
	// the loop's passes, which also tune (the tuner gauges below).
	RecallObserved     = Default().NewGaugeVec("vdbms_recall_observed", "Observed recall@k from the most recent recall pass, by collection.", "collection")
	RecallAudits       = Default().NewCounterVec("vdbms_recall_audit_total", "Recall passes by outcome (ok, regression, empty, error).", "outcome")
	RecallAuditSamples = Default().NewCounter("vdbms_recall_audit_samples_total", "Reservoir samples scored against exact ground truth by recall passes.")
	RecallAuditSeconds = Default().NewHistogram("vdbms_recall_audit_seconds", "Wall-clock duration of recall passes.", BuildBuckets)

	// Background index builds (internal/core). The state gauge is 1
	// while a collection's builder goroutine is running, 0 otherwise;
	// scraping it against search latency shows whether queries ride
	// through builds untouched (they must — builds never run on the
	// query path).
	IndexBuildState    = Default().NewGaugeVec("vdbms_index_build_state", "1 while a background index build is running for the collection, else 0.", "collection")
	IndexBuildsTotal   = Default().NewCounterVec("vdbms_index_build_total", "Completed background index builds by outcome (installed, stale, failed).", "outcome")
	IndexBuildSeconds  = Default().NewHistogram("vdbms_index_build_seconds", "Wall-clock duration of ANN index builds (background and CreateIndex).", BuildBuckets)
	IndexBuildLastSecs = Default().NewGauge("vdbms_index_build_last_seconds", "Duration of the most recent completed index build.")

	// Intra-query fan-out (internal/pool and the partitioned
	// full-column flat scan). PoolInline counts tasks that ran on the
	// submitting goroutine because the pool was saturated — the
	// parallel-efficiency signal: inline/tasks near 1 means fan-out is
	// oversubscribed and queries are effectively serial.
	PoolTasks        = Default().NewCounter("vdbms_pool_tasks_total", "Tasks submitted to the shared worker pool.")
	PoolInline       = Default().NewCounter("vdbms_pool_inline_total", "Pool tasks run inline on the caller because all workers were busy.")
	ParallelSearches = Default().NewCounterVec("vdbms_parallel_search_total", "Searches that partitioned work across >1 worker, by site.", "site")

	// Index probes (internal/executor).
	IndexProbes        = Default().NewCounterVec("vdbms_index_probe_total", "Index probe calls by index family.", "index")
	IndexDistanceComps = Default().NewCounterVec("vdbms_index_distance_comps_total", "Full-vector distance computations by index family.", "index")
	IndexNodesVisited  = Default().NewCounterVec("vdbms_index_nodes_visited_total", "Graph nodes visited during probes by index family.", "index")
	IndexBucketsProbed = Default().NewCounterVec("vdbms_index_buckets_probed_total", "IVF/LSH buckets scanned by index family.", "index")
	IndexPartitions    = Default().NewCounterVec("vdbms_index_partitions_total", "Parallel scan partitions executed by index family.", "index")

	// Distributed read path (internal/dist).
	DistSearches      = Default().NewCounter("vdbms_dist_search_total", "Scatter-gather searches started.")
	DistPartial       = Default().NewCounter("vdbms_dist_partial_total", "Scatter-gather searches that returned partial coverage.")
	DistShardFailures = Default().NewCounterVec("vdbms_dist_shard_failures_total", "Per-shard call failures (after retries).", "shard")
	DistShardLatency  = Default().NewHistogramVec("vdbms_dist_shard_latency_seconds", "Per-shard call latency including retries.", "shard", nil)
	DistRetries       = Default().NewCounter("vdbms_dist_retry_total", "Shard call retry attempts beyond the first.")
	ReplicaFailovers  = Default().NewCounter("vdbms_replica_failover_total", "Replica calls that failed and fell through to the next replica.")

	// Fault layer (internal/fault breakers, wired by internal/dist).
	BreakerTransitions = Default().NewCounterVec("vdbms_breaker_transitions_total", "Circuit breaker state transitions by destination state.", "to")
	ShardBreakerState  = Default().NewGaugeVec("vdbms_shard_breaker_state", "Router shard breaker position (0=closed 1=open 2=half-open).", "shard")

	// Durable write path (internal/wal + internal/core). Batch size is
	// the group-commit health signal: mean records per batch near 1
	// under concurrent writers means commits are not being amortized.
	WALAppends         = Default().NewCounter("vdbms_wal_appends_total", "Records appended to the write-ahead log.")
	WALAppendBytes     = Default().NewCounter("vdbms_wal_append_bytes_total", "Framed bytes appended to the write-ahead log.")
	WALFsyncs          = Default().NewCounter("vdbms_wal_fsync_total", "fsync calls issued by the WAL committer.")
	WALFsyncSeconds    = Default().NewHistogram("vdbms_wal_fsync_seconds", "Duration of WAL fsync calls.", nil)
	WALBatchRecords    = Default().NewHistogram("vdbms_wal_batch_records", "Records per group-commit batch.", BatchBuckets)
	WALRotations       = Default().NewCounter("vdbms_wal_rotations_total", "WAL segment rotations.")
	WALSegmentsRemoved = Default().NewCounter("vdbms_wal_segments_removed_total", "Obsolete WAL segments deleted after checkpoints.")
	WALReplayedRecords = Default().NewCounter("vdbms_wal_replayed_records_total", "WAL records replayed during recovery.")
	WALTornTails       = Default().NewCounter("vdbms_wal_torn_tails_total", "Recoveries that truncated a torn tail off the log.")
	WALRecoveries      = Default().NewCounterVec("vdbms_wal_recovery_total", "Crash recoveries by outcome (ok, failed).", "outcome")

	// Incremental checkpoints (internal/core). A checkpoint serializes
	// a pinned epoch snapshot off the write path, then truncates the
	// WAL segments it covers.
	CheckpointsTotal  = Default().NewCounterVec("vdbms_checkpoint_total", "Checkpoint attempts by outcome (written, skipped, failed).", "outcome")
	CheckpointSeconds = Default().NewHistogram("vdbms_checkpoint_seconds", "Wall-clock duration of checkpoint writes.", BuildBuckets)
	CheckpointLastLSN = Default().NewGauge("vdbms_checkpoint_last_lsn", "LSN covered by the most recent checkpoint.")
	CheckpointBytes   = Default().NewGauge("vdbms_checkpoint_last_bytes", "Size of the most recent checkpoint file.")

	// Memory tier (internal/memory + internal/core + internal/server).
	// Resident bytes are push-accounted by owners (vector columns,
	// index structures, quantized codes, WAL buffers, page caches), so
	// the gauges reflect what the engine believes it holds; RSS and
	// major faults are sampled from /proc as the ground-truth check —
	// a page-fault-rate proxy for how hard the mmap tier is working.
	MemBudgetBytes   = Default().NewGauge("vdbms_mem_budget_bytes", "Configured process memory budget in bytes (0 = unlimited).")
	MemResidentBytes = Default().NewGauge("vdbms_mem_resident_bytes", "Accounted resident bytes across all collections.")
	MemCategoryBytes = Default().NewGaugeVec("vdbms_mem_category_bytes", "Accounted resident bytes by category (vectors, index, quant_codes, wal_buffers).", "category")
	MemStage         = Default().NewGauge("vdbms_mem_stage", "Degradation ladder position (0=normal 1=drop_caches 2=evict 3=shed).")
	MemStageChanges  = Default().NewCounterVec("vdbms_mem_stage_transitions_total", "Degradation ladder transitions by destination stage.", "to")
	MemEvictions     = Default().NewCounter("vdbms_mem_evictions_total", "Collection float columns evicted to the mmap tier.")
	MemPromotions    = Default().NewCounter("vdbms_mem_promotions_total", "Collection float columns promoted from mmap back to heap.")
	MemCacheDrops    = Default().NewCounter("vdbms_mem_cache_drops_total", "Cache-drop sweeps performed by the budget manager.")
	MemShedTotal     = Default().NewCounter("vdbms_mem_shed_total", "Requests shed with 503 because the ladder reached the shed stage.")
	MemRSSBytes      = Default().NewGauge("vdbms_mem_rss_bytes", "Process resident set size sampled from /proc/self/statm.")
	MemMajorFaults   = Default().NewGauge("vdbms_mem_major_faults_total", "Cumulative process major page faults sampled from /proc/self/stat.")

	// Adaptive query optimization (internal/core recall.go + planner).
	// The param-source counter decomposes every search by where its
	// Ef/NProbe came from (explicit, tuned, safe_default,
	// index_default) — the observability spine of
	// the feedback loop: "tuned" rising and "safe_default" falling is
	// the tuner converging. Reselect counts drift-triggered index
	// re-selection decisions handed to the background builder (the
	// build outcome itself lands in vdbms_index_build_total).
	PlanParamSource = Default().NewCounterVec("vdbms_plan_param_source_total", "Searches by the layer that resolved their Ef/NProbe search parameters.", "source")
	PlanReselects   = Default().NewCounterVec("vdbms_plan_reselect_total", "Drift-triggered index re-selection decisions by kind (build_graph, strengthen, partition).", "decision")

	// Recall-SLO tuning (internal/core recall.go): each recall pass
	// replays some of its samples at every candidate parameter value
	// against the same exact ground truth and refreshes the
	// recall-vs-cost frontier. The gauges track, per collection, the
	// parameter the dominant k-bucket currently resolves to and the best
	// trusted recall on its frontier (sagging below the target while
	// tuning is exhausted is the drift detector's rebuild signal).
	TuneResolvedParam  = Default().NewGaugeVec("vdbms_tune_resolved_param", "Search parameter (ef or nprobe) the tuner currently resolves for the collection's dominant k.", "collection")
	TuneFrontierRecall = Default().NewGaugeVec("vdbms_tune_frontier_recall", "Best trusted recall on the collection's recall-vs-cost frontier at the dominant k.", "collection")

	// HTTP layer (internal/server).
	HTTPRequests     = Default().NewCounterVec("vdbms_http_requests_total", "HTTP requests by endpoint.", "path")
	HTTPEncodeErrors = Default().NewCounter("vdbms_http_encode_errors_total", "Response bodies that failed to JSON-encode mid-write.")
	PartialResponses = Default().NewCounter("vdbms_http_partial_responses_total", "HTTP batch search responses served with some queries failed.")
	SlowQueries      = Default().NewCounter("vdbms_slow_query_total", "Queries exceeding the slow-query log threshold.")
)

func init() {
	// Vec series materialize on first With(); pre-seed the breaker
	// transition counters so every /metrics scrape shows the family at
	// zero instead of the series appearing only after the first trip.
	for _, to := range []string{"closed", "open", "half-open"} {
		BreakerTransitions.With(to)
	}
	for _, outcome := range []string{"ok", "regression", "empty", "error"} {
		RecallAudits.With(outcome)
	}
	for _, to := range []string{"normal", "drop_caches", "evict", "shed"} {
		MemStageChanges.With(to)
	}
	for _, cat := range []string{"vectors", "index", "quant_codes", "wal_buffers"} {
		MemCategoryBytes.With(cat)
	}
	for _, src := range []string{"explicit", "tuned", "safe_default", "index_default"} {
		PlanParamSource.With(src)
	}
	for _, d := range []string{"build_graph", "strengthen", "partition"} {
		PlanReselects.With(d)
	}
}
