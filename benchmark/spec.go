package main

import (
	"runtime"
	"time"
)

const (
	dim        = 128
	clusters   = 64
	topK       = 10
	catRange   = 100 // attribute "cat" is uniform in [0, catRange)
	subWindows = 10  // the measured window is cut into this many; a metric is their median
)

// spec is one workload: what is loaded during set-up and what each
// request asks for. The names are cited by later issues; do not rename.
type spec struct {
	name      string
	rows      int            // vectors loaded during set-up
	pool      int            // distinct queries, cycled in seeded order
	index     string         // index family built during set-up ("" = none)
	indexOpts map[string]int // its build options
	durable   bool           // vdbms.Open with fsync=always instead of vdbms.New
	ef        int            // "ef" of every search
	nprobe    int            // "nprobe" of every search
	policy    string         // "policy" of every search ("" = cost-based planner)
	filtered  bool           // one predicate on cat, selectivity drawn per query
	writePct  int            // share of operations that are inserts
}

// The sizes are scaled down from the ones ISSUE 12 names (100 000 rows,
// 30 s): the driver's budget is 92 runs in 3420 s, about 37 s per run with
// its set-ups, and a 100 000-row HNSW build alone takes ~28 s here. They
// are also chosen for steadiness on a shared host: a 100 000-row scan
// streams 51 MB per query from DRAM and its time follows the neighbours'
// memory traffic (+-25 % between runs), a 20 000-row one stays in cache
// (+-3 %). The durable collection is as large as the others so that the
// ~5 000 rows a run inserts grow it by a quarter: from 4 000 rows it
// tripled, and so did the time of a search, between the first sub-window
// and the last. nlist=32 because k-means for 64 lists over 64 clusters
// takes 1.0 to 1.8 s depending on the seed, for 32 lists 0.35 s on every
// seed. README.md has the table.
var specs = []spec{
	{
		name: "ann_search",
		rows: 20000, pool: 1000, index: "hnsw", indexOpts: map[string]int{"m": 16}, ef: 64,
	},
	{
		name: "filtered_search",
		rows: 20000, pool: 1000, index: "hnsw", indexOpts: map[string]int{"m": 16}, ef: 64, filtered: true,
	},
	{
		name: "exact_scan",
		rows: 20000, pool: 1000, policy: "plan:brute_force",
	},
	{
		name: "mixed_rw_durable",
		rows: 20000, pool: 1000, index: "ivfflat", indexOpts: map[string]int{"nlist": 32}, nprobe: 8,
		durable: true, writePct: 20,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// config is everything a run depends on besides the workload. The smoke
// test shrinks it; the command line sets only seed, seconds and workdir.
type config struct {
	seed    int64
	seconds float64       // measured window
	warmup  time.Duration // discarded before the window
	clients int           // closed-loop clients, one keep-alive connection each
	// setups is the least number of set-ups per run; setup_s is the median
	// of them all. A set-up that takes a fraction of a second is repeated,
	// up to ten times as often, until setupBudget has been spent: its
	// time is the noisiest there is relative to its size.
	setups      int
	setupBudget time.Duration
	// maxRows and maxPool cap every spec's sizes (0 = as specified).
	maxRows, maxPool int
	// reserve is the number of distinct insert bodies per client on a
	// workload with writes; a client that uses them all starts over.
	reserve     int
	minSamples  int // fewer latency samples than this fail the run as too short
	traceWrites int // writes per seam in the traced pass
	// checkpointEvery is the background checkpoint period of the durable
	// collection. A checkpoint delays the requests beside it, about one in
	// a hundred of a sub-window's: p99 reads 2 ms in a sub-window without a
	// checkpoint and 3 ms in one with. At one checkpoint per sub-window, or
	// every other, the median of the sub-windows flipped between the two
	// from run to run; two checkpoints per window leave most sub-windows
	// without one.
	checkpointEvery time.Duration
	workdir         string // durable data and scratch logs live here
}

func defaultConfig() config {
	return config{
		seed:            1,
		seconds:         20,
		warmup:          1500 * time.Millisecond,
		clients:         min(runtime.NumCPU(), 4),
		setups:          3,
		setupBudget:     3 * time.Second,
		reserve:         8192,
		minSamples:      1000,
		traceWrites:     400,
		checkpointEvery: 10 * time.Second,
	}
}

func (c config) rows(s spec) int {
	if c.maxRows > 0 && s.rows > c.maxRows {
		return c.maxRows
	}
	return s.rows
}

func (c config) pool(s spec) int {
	if c.maxPool > 0 && s.pool > c.maxPool {
		return c.maxPool
	}
	return s.pool
}

// metricDef is one named metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd lists what `-trace 0` prints for every workload, in order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"search_qps", "1/s"},
	{"search_p50_ms", "ms"},
	{"recall_at_10", "ratio"},
	{"allocs_per_op", "count"},
	{"cpu_ms_per_op", "ms"},
	{"heap_mib", "MiB"},
}

// perLayer lists what `-trace 1` prints for every workload, in order. A
// seam the workload does not cross reads 0.
var perLayer = []metricDef{
	// search seams, outermost first, then self times by subtraction
	{"net.rtt_us", "us"}, {"server.handler_us", "us"}, {"core.search_us", "us"},
	{"executor.search_us", "us"}, {"index.probe_us", "us"}, {"vec.score_us", "us"},
	{"net.self_us", "us"}, {"server.self_us", "us"}, {"core.self_us", "us"},
	{"executor.self_us", "us"}, {"index.self_us", "us"},
	// direct pieces
	{"server.decode_us", "us"}, {"server.encode_us", "us"},
	{"server.req_bytes", "bytes"}, {"server.resp_bytes", "bytes"},
	{"server.allocs_per_query", "count"}, {"core.allocs_per_query", "count"},
	{"planner.plan_us", "us"}, {"filter.bitmap_us", "us"}, {"filter.selectivity", "ratio"},
	{"index.comps_per_query", "count"}, {"index.rows_per_result", "count"},
	{"vec.rows_per_s", "1/s"}, {"topk.collect_us", "us"},
	// recall/cost frontier of the index (ann_search)
	{"index.recall_ef16", "ratio"}, {"index.recall_ef64", "ratio"}, {"index.recall_ef256", "ratio"},
	{"index.comps_ef16", "count"}, {"index.comps_ef64", "count"}, {"index.comps_ef256", "count"},
	// write and durability seams (mixed_rw_durable)
	{"net.write_rtt_us", "us"}, {"server.write_handler_us", "us"},
	{"core.insert_us", "us"}, {"core.insert_nowal_us", "us"}, {"wal.self_us", "us"},
	{"wal.append_wait_us", "us"}, {"wal.bytes_per_insert", "bytes"}, {"wal.write_amp", "ratio"},
	{"core.update_us", "us"}, {"core.delete_us", "us"},
	{"core.checkpoint_s", "s"}, {"core.checkpoint_bytes", "bytes"},
	{"core.recover_s", "s"}, {"core.recovered_fraction", "ratio"},
	{"core.index_builds", "count"}, {"core.index_build_s", "s"},
	// cross-check against the server's own stage histograms
	{"obs.stage_plan_us", "us"}, {"obs.stage_filter_us", "us"}, {"obs.stage_index_probe_us", "us"},
	{"obs.stage_post_filter_us", "us"}, {"obs.stage_wal_commit_wait_us", "us"},
	{"obs.reconcile_ratio", "ratio"}, {"bench.trace_overhead_pct", "%"},
}
