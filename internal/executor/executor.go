// Package executor implements the Query Executor of Figure 1: the
// similarity-projection + top-k operators, the hybrid scan operators
// (block-first via bitmap, visit-first via traversal predicate,
// post-filter with over-fetch), batched execution, multi-vector
// queries via aggregate scores, and the incremental (resumable) k-NN
// iterator from the open problems of Section 2.6.
package executor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vdbms/internal/bitset"
	"vdbms/internal/filter"
	"vdbms/internal/index"
	"vdbms/internal/obs"
	"vdbms/internal/planner"
	"vdbms/internal/pool"
	"vdbms/internal/stats"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// Stage-latency handles, bound once so the hot path pays two
// time.Now calls and one histogram observe per stage — never a map
// lookup. Together these decompose vdbms_search_latency_seconds into
// where the time actually goes.
var (
	stagePlan       = obs.SearchStageSeconds.With("plan")
	stageFilter     = obs.SearchStageSeconds.With("filter")
	stageProbe      = obs.SearchStageSeconds.With("index_probe")
	stagePostFilter = obs.SearchStageSeconds.With("post_filter")
	stageRange      = obs.SearchStageSeconds.With("range_scan")
)

// Env is the execution environment for one collection snapshot. An
// Env is immutable once constructed and safe for any number of
// concurrent queries: core builds one per published epoch and every
// search that loads that epoch shares it, so nothing here may be
// mutated after NewEnv/NewEnvScorer returns (the own statistics tracker
// of an Env without Stats is installed once, atomically).
type Env struct {
	Data  []float32 // row-major vectors
	N     int
	Dim   int
	Fn    vec.DistanceFunc // nil defaults to squared L2
	ANN   index.Index      // optional ANN index
	Flat  *index.Flat      // exact scan fallback (required)
	Attrs *filter.Table    // optional attribute table
	// Stats is the owning collection's online statistics: it receives
	// the Env's query observations (probe cost, scan timings, measured
	// selectivities) and backs the optimizer's measured inputs. The
	// owner sets it before publishing the Env; the stats.Collection is
	// concurrency-safe and shared across epochs. Left nil, the Env keeps
	// a tracker of its own, made on first use, so a standalone Env plans
	// from the queries it has served exactly as a collection does.
	Stats *stats.Collection
	own   atomic.Pointer[stats.Collection]
	// Advise, when non-nil, receives the access pattern the chosen plan
	// is about to drive over Data — AdviseSequential for exhaustive
	// scans (brute force, pre-filter allowlists, range scans),
	// AdviseRandom for index traversals. Collections whose column is
	// mmap-backed forward it to madvise so the kernel sizes readahead to
	// the plan; heap-backed collections leave it nil. Must be safe for
	// concurrent calls and cheap when the pattern is unchanged.
	Advise func(pattern AccessPattern)
}

// AccessPattern is the plan-level access hint fed to Env.Advise.
type AccessPattern int

const (
	// AdviseSequential marks a full-column pass (flat scans).
	AdviseSequential AccessPattern = iota
	// AdviseRandom marks point lookups driven by an index traversal.
	AdviseRandom
)

// tracker is where the Env's observations go and its measured inputs
// come from: the owner's Stats, or else the Env's own tracker.
func (e *Env) tracker() *stats.Collection {
	if e.Stats != nil {
		return e.Stats
	}
	if t := e.own.Load(); t != nil {
		return t
	}
	e.own.CompareAndSwap(nil, stats.New(""))
	return e.own.Load()
}

// advise forwards the plan's access pattern to the owner's hook.
func (e *Env) advise(p AccessPattern) {
	if e.Advise != nil {
		e.Advise(p)
	}
}

// NewEnv wires an environment, building the Flat index. Canonical vec
// distance functions get the metric-specialized block kernels; opaque
// functions scan row-at-a-time.
func NewEnv(data []float32, n, d int, fn vec.DistanceFunc, ann index.Index, attrs *filter.Table) (*Env, error) {
	if fn == nil {
		fn = vec.SquaredL2
	}
	fl, err := index.NewFlat(data, n, d, fn)
	if err != nil {
		return nil, err
	}
	return &Env{Data: data, N: n, Dim: d, Fn: fn, ANN: ann, Flat: fl, Attrs: attrs}, nil
}

// NewEnvScorer wires an environment around a prebuilt scorer, sharing
// its cached per-row state (cosine norms, Mahalanobis pre-transform)
// with the caller — collections that rebuild their Env per search keep
// one scorer alive across searches and extend it on insert instead of
// recomputing state per query. fn is the scalar distance used by
// aggregate (multi-vector) scoring; nil defaults to squared L2.
func NewEnvScorer(sc *vec.Scorer, fn vec.DistanceFunc, ann index.Index, attrs *filter.Table) (*Env, error) {
	if fn == nil {
		fn = vec.SquaredL2
	}
	fl, err := index.NewFlatScorer(sc)
	if err != nil {
		return nil, err
	}
	return &Env{Data: sc.Data(), N: sc.Rows(), Dim: sc.Dim(), Fn: fn, ANN: ann, Flat: fl, Attrs: attrs}, nil
}

// Options carries per-query execution knobs.
type Options struct {
	Ef     int // index beam/leaf budget
	NProbe int // bucket probes
	// Deleted, when non-nil, hides its set rows from every plan (the
	// engine's deletion mask). Exhaustive operators fold it into their
	// allowlist word-wise; traversals test it per visited id. It may
	// cover fewer rows than the Env: uncovered rows are live.
	Deleted *bitset.Bitset
	// Parallelism is the intra-query worker count for partitioned
	// scans (flat ranges, IVF inverted lists). 0 uses the shared pool
	// width (GOMAXPROCS), 1 forces serial scans. Results are identical
	// at every setting.
	Parallelism int
	// RerankK overrides the exact re-rank width of quantized index
	// scans for this query (0 keeps the index's configured default;
	// ignored by full-precision indexes).
	RerankK int
	// Span, when non-nil, is the parent under which execution stages
	// (filter, index_probe, post_filter) record trace spans. Nil costs
	// only a pointer check per stage. SearchBatch shares one Options
	// across goroutines, so batch callers should leave Span nil and
	// trace the batch as a whole.
	Span *obs.Span
	// Ctx, when non-nil, cancels the query: the allowlist build polls it
	// every bitmapBlock rows and the index probe carries it in
	// index.Params, so a cancelled query stops within one block or
	// expansion and returns Ctx.Err().
	Ctx context.Context
}

func (o Options) params() index.Params {
	return index.Params{Ef: o.Ef, NProbe: o.NProbe, Parallelism: o.Parallelism, RerankK: o.RerankK, Ctx: o.Ctx}
}

// compile binds the query's predicates to this snapshot's attribute
// view, once per query; nil means "no predicates". Every operator works
// off the compiled form (filter.Compiled): the column-at-a-time
// evaluator for exhaustive plans, the per-id matcher for traversals.
func (e *Env) compile(preds []filter.Predicate) (*filter.Compiled, error) {
	if len(preds) == 0 {
		return nil, nil
	}
	if e.Attrs == nil {
		return nil, fmt.Errorf("executor: predicates given but no attribute table")
	}
	return e.Attrs.Compile(preds)
}

// visitFilter is the visit-first admission test of a traversal: live
// (not in del) and matching cp. Nil when neither constrains the query.
func visitFilter(cp *filter.Compiled, del *bitset.Bitset) func(id int64) bool {
	switch {
	case cp == nil && del == nil:
		return nil
	case del == nil:
		return cp.Matcher()
	case cp == nil:
		return func(id int64) bool { return !del.Test(int(id)) }
	default:
		match := cp.Matcher()
		return func(id int64) bool { return !del.Test(int(id)) && match(id) }
	}
}

// bitmapPool recycles per-query allowlists: an exhaustive operator
// takes one, fills it, hands it to the scan and returns it when the
// scan has returned (no index retains Params.Allow past Search).
var bitmapPool = sync.Pool{New: func() any { return new(bitset.Bitset) }}

func releaseBitmap(bm *bitset.Bitset) {
	if bm != nil {
		bitmapPool.Put(bm)
	}
}

// bitmapBlock is how many rows the allowlist build evaluates between two
// polls of the query's context: whole words, and a few microseconds of
// predicate evaluation — about what one scan block of the flat index
// costs.
const bitmapBlock = 8192

// allowBitmap builds the block-first allowlist of an exhaustive
// operator over all N rows: the predicate's match bits from the
// column-at-a-time evaluator, then the deletion mask cleared out of
// them word-wise. survivors is the predicate's exact match count,
// taken before deletions are folded in. It returns nil when nothing
// constrains the scan; otherwise the caller owes a releaseBitmap. The
// evaluation polls done before every bitmapBlock rows and gives up,
// returning stopped and no bitmap, once it has closed.
func (e *Env) allowBitmap(cp *filter.Compiled, del *bitset.Bitset, done <-chan struct{}) (bm *bitset.Bitset, survivors int, stopped bool) {
	if cp == nil && del == nil {
		return nil, e.N, false
	}
	bm = bitmapPool.Get().(*bitset.Bitset)
	bm.Reset(e.N)
	if cp == nil {
		bm.SetAll()
		survivors = e.N
	} else {
		for lo := 0; lo < e.N; lo += bitmapBlock {
			if index.Stopped(done) {
				releaseBitmap(bm)
				return nil, 0, true
			}
			cp.EvalRange(bm, lo, min(lo+bitmapBlock, e.N))
		}
		survivors = bm.Count()
	}
	if del != nil {
		bm.AndNot(del)
	}
	return bm, survivors, false
}

// filterStage is allowBitmap on the serving path: with a predicate the
// build is the query's "filter" stage — timed into the stage histogram,
// spanned with its survivor count, and fed to the collection's
// statistics (a bitmap build evaluates the predicate on every row, so
// it is both the exact selectivity of the predicate and the cleanest
// per-evaluation timing for the calibrated attribute-cost ratio). A
// build the query's context cut short returns its error and records
// nothing.
func (e *Env) filterStage(preds []filter.Predicate, cp *filter.Compiled, opts Options) (bm *bitset.Bitset, survivors int, err error) {
	if cp == nil {
		bm, survivors, _ = e.allowBitmap(nil, opts.Deleted, nil)
		return bm, survivors, nil
	}
	params := opts.params()
	fsp := opts.Span.Start("filter")
	start := time.Now()
	bm, survivors, stopped := e.allowBitmap(cp, opts.Deleted, params.Done())
	elapsed := time.Since(start)
	stageFilter.Observe(elapsed.Seconds())
	fsp.Annotate("survivors", int64(survivors))
	fsp.End()
	if stopped {
		return nil, 0, params.Err()
	}
	e.tracker().RecordAttrCost(elapsed.Nanoseconds(), int64(e.N))
	e.recordMeasuredSel(preds, int64(survivors), int64(e.N))
	return bm, survivors, nil
}

// minSelEvals is the minimum per-row predicate evaluations before a
// traversal's measured pass rate is recorded into the selectivity
// histograms — below it one scan is too small a sample to be a
// useful observation. It is deliberately low enough that a typical
// post-filter over-fetch (alpha*k) still records: per-scan noise
// averages out across the histogram's many observations. Exact
// measurements (bitmap cardinalities of exhaustive plans) are
// recorded regardless.
const minSelEvals = 16

// selCount tallies the predicate evaluations of one serial traversal so
// its pass rate (admitted / evaluated over the live rows it visited) can
// feed the selectivity histograms afterwards — a query-local sample.
// The counters are plain words owned by the query: they are attached
// only to probes that call the filter from a single goroutine (see
// filtersSerially), so no cache line is shared between cores.
type selCount struct{ evaluated, admitted int64 }

func (sc *selCount) wrap(cp *filter.Compiled, del *bitset.Bitset) func(id int64) bool {
	match := cp.Matcher()
	return func(id int64) bool {
		if del != nil && del.Test(int(id)) {
			return false
		}
		sc.evaluated++
		if match(id) {
			sc.admitted++
			return true
		}
		return false
	}
}

// filtersSerially reports whether idx will call params.Filter from one
// goroutine only: every family does except the ones that partition a
// query across pool workers and say so through index.ConcurrentFilter.
func filtersSerially(idx index.Index, params index.Params) bool {
	cf, ok := idx.(index.ConcurrentFilter)
	return !ok || !cf.FiltersConcurrently(params)
}

// recordMeasuredSel feeds one measured selectivity observation
// (admitted survivors / rows examined) into the per-column histograms.
func (e *Env) recordMeasuredSel(preds []filter.Predicate, admitted, evaluated int64) {
	if evaluated <= 0 {
		return
	}
	sel := float64(admitted) / float64(evaluated)
	st := e.tracker()
	for _, p := range preds {
		st.RecordSelectivity(p.Column, sel)
	}
}

// Execute runs a (possibly predicated) top-k query under the given
// plan. preds may be empty, in which case every plan degenerates to a
// plain index or flat scan.
func (e *Env) Execute(p planner.Plan, q []float32, k int, preds []filter.Predicate, opts Options) ([]topk.Result, error) {
	if err := e.checkQuery(q, k); err != nil {
		return nil, err
	}
	cp, err := e.compile(preds)
	if err != nil {
		return nil, err
	}
	return e.execute(p, q, k, preds, cp, opts)
}

func (e *Env) checkQuery(q []float32, k int) error {
	if k <= 0 {
		return index.ErrBadK
	}
	if len(q) != e.Dim {
		return fmt.Errorf("%w: query %d, env %d", index.ErrDim, len(q), e.Dim)
	}
	return nil
}

// execute dispatches a checked query to its plan's operator. cp is
// preds compiled against this Env (nil when preds is empty); preds
// itself travels along only to name the columns a measured selectivity
// is recorded under.
func (e *Env) execute(p planner.Plan, q []float32, k int, preds []filter.Predicate, cp *filter.Compiled, opts Options) ([]topk.Result, error) {
	switch p.Kind {
	case planner.BruteForce:
		e.advise(AdviseSequential)
		return e.bruteForce(q, k, preds, cp, opts)
	case planner.PreFilter:
		e.advise(AdviseSequential)
		return e.preFilter(q, k, preds, cp, opts)
	case planner.PostFilter:
		e.advise(AdviseRandom)
		return e.postFilter(q, k, preds, cp, p.Alpha, opts)
	case planner.SingleStage:
		e.advise(AdviseRandom)
		return e.singleStage(q, k, preds, cp, opts)
	default:
		return nil, fmt.Errorf("executor: unknown plan %v", p.Kind)
	}
}

// probe runs one index scan with per-query stats collection: the
// backend fills an index.SearchStats, which feeds both the per-index
// obs counters (always on) and the query's trace span (when opts.Span
// is set). Every plan funnels its index/flat scans through here so
// /metrics attributes work to the index family that actually served
// the query. A query whose context has ended is refused here — the one
// check families that do not poll params.Ctx themselves get — and a
// probe that fails, cancelled ones included, feeds nothing to the cost
// model: its truncated comps would bias the observed probe cost.
func (e *Env) probe(idx index.Index, q []float32, k int, params index.Params, span *obs.Span) ([]topk.Result, error) {
	if err := params.Err(); err != nil {
		return nil, err
	}
	var st index.SearchStats
	params.Stats = &st
	sp := span.Start("index_probe")
	start := time.Now()
	res, err := idx.Search(q, k, params)
	elapsed := time.Since(start)
	stageProbe.Observe(elapsed.Seconds())
	sp.End()
	name := idx.Name()
	if err == nil {
		tr := e.tracker()
		if idx == e.ANN {
			// Observed probe cost feeds the cost model; exact scans
			// are excluded — their cost is already exactly N.
			tr.RecordProbe(st.DistanceComps)
			quant := false
			if qi, ok := idx.(index.Quantized); ok && qi.QuantizedScan() {
				quant = true
			}
			tr.RecordCompCost(elapsed.Nanoseconds(), st.DistanceComps, quant)
		} else {
			// Flat probes are the full-precision ns-per-comp baseline
			// the calibrated cost ratios are measured against.
			tr.RecordCompCost(elapsed.Nanoseconds(), st.DistanceComps, false)
		}
	}
	sp.Tag("index", name)
	sp.Annotate("k", int64(k))
	sp.Annotate("distance_comps", st.DistanceComps)
	if st.NodesVisited > 0 {
		sp.Annotate("nodes_visited", st.NodesVisited)
	}
	if st.GreedyHops > 0 {
		sp.Annotate("greedy_hops", st.GreedyHops)
	}
	if st.BucketsProbed > 0 {
		sp.Annotate("buckets_probed", st.BucketsProbed)
	}
	if st.IOReads > 0 {
		sp.Annotate("io_reads", st.IOReads)
	}
	if st.CacheHits > 0 {
		sp.Annotate("cache_hits", st.CacheHits)
	}
	if st.Partitions > 0 {
		sp.Annotate("partitions", st.Partitions)
	}
	obs.IndexProbes.With(name).Inc()
	obs.IndexDistanceComps.With(name).Add(st.DistanceComps)
	obs.IndexNodesVisited.With(name).Add(st.NodesVisited)
	obs.IndexBucketsProbed.With(name).Add(st.BucketsProbed)
	obs.IndexIOReads.With(name).Add(st.IOReads)
	obs.IndexPartitions.With(name).Add(st.Partitions)
	return res, err
}

// bruteForce is the exhaustive scan (plan A): the predicate is
// evaluated column-at-a-time into an allowlist — an exact selectivity
// measurement, recorded under the filter stage — and the flat index
// scores exactly the surviving live rows.
func (e *Env) bruteForce(q []float32, k int, preds []filter.Predicate, cp *filter.Compiled, opts Options) ([]topk.Result, error) {
	params := opts.params()
	var err error
	if params.Allow, _, err = e.filterStage(preds, cp, opts); err != nil {
		return nil, err
	}
	res, err := e.probe(e.Flat, q, k, params, opts.Span)
	releaseBitmap(params.Allow)
	return res, err
}

// preFilter builds the bitmap and hands it to the index as a
// block-first allowlist (plan B). When the survivor set is tiny the
// index scan is skipped for an exact scan over survivors, matching the
// behavior AnalyticDB-V's optimizer picks in that regime.
func (e *Env) preFilter(q []float32, k int, preds []filter.Predicate, cp *filter.Compiled, opts Options) ([]topk.Result, error) {
	if cp == nil {
		return e.indexOrFlat(q, k, opts)
	}
	params := opts.params()
	var survivors int
	var err error
	if params.Allow, survivors, err = e.filterStage(preds, cp, opts); err != nil {
		return nil, err
	}
	// Small survivor sets are scanned exactly: cheaper than a blocked
	// index scan and immune to the graph-disconnection effect of
	// online blocking (Section 2.3(1)).
	exactCutoff := 16 * k
	if exactCutoff < 256 {
		exactCutoff = 256
	}
	idx := index.Index(e.Flat)
	if e.ANN != nil && survivors > exactCutoff {
		idx = e.ANN
	}
	res, err := e.probe(idx, q, k, params, opts.Span)
	releaseBitmap(params.Allow)
	return res, err
}

// postFilter over-fetches alpha*k unfiltered candidates and applies
// the predicate afterwards (plan C). It may return fewer than k
// results — the documented trade-off of this plan. With no predicate
// there is nothing to over-fetch for: it asks the index for k, so the
// probe runs at the ef the query resolved rather than max(ef, alpha*k).
func (e *Env) postFilter(q []float32, k int, preds []filter.Predicate, cp *filter.Compiled, alpha int, opts Options) ([]topk.Result, error) {
	if cp == nil {
		return e.indexOrFlat(q, k, opts)
	}
	if alpha <= 0 {
		alpha = 4
	}
	cands, err := e.indexOrFlat(q, min(alpha*k, e.N), opts)
	if err != nil {
		return nil, err
	}
	psp := opts.Span.Start("post_filter")
	pstart := time.Now()
	psp.Annotate("fetched", int64(len(cands)))
	// Every fetched candidate is evaluated (the cost model already
	// charges alpha*k attribute checks); only the first k admitted are
	// kept. Checking the tail keeps the measured pass rate below a
	// deterministic sample size instead of stopping wherever the k-th
	// admission happened to land.
	out := make([]topk.Result, 0, k)
	var admitted int64
	for _, r := range cands {
		if cp.Match(r.ID) {
			admitted++
			if len(out) < k {
				out = append(out, r)
			}
		}
	}
	psp.Annotate("kept", int64(len(out)))
	stagePostFilter.Observe(time.Since(pstart).Seconds())
	psp.End()
	// The candidate set is distance-biased, but its measured pass rate
	// is still a real observation of the predicate on live rows; the
	// minimum-evaluations bar keeps degenerate over-fetches from
	// quantizing the histograms to 0-or-1 observations.
	if evaluated := int64(len(cands)); evaluated >= minSelEvals {
		e.recordMeasuredSel(preds, admitted, evaluated)
	}
	return out, nil
}

// singleStage pushes the predicate into the traversal (plan D,
// visit-first scan): the index calls the per-id matcher on the nodes it
// visits. On a serial traversal the pass rate over visited live rows
// is recorded as a query-local selectivity sample. Without an ANN
// index the plan is the exhaustive scan.
func (e *Env) singleStage(q []float32, k int, preds []filter.Predicate, cp *filter.Compiled, opts Options) ([]topk.Result, error) {
	if e.ANN == nil {
		return e.bruteForce(q, k, preds, cp, opts)
	}
	params := opts.params()
	var sc *selCount
	if cp != nil && e.tracker().Enabled() && filtersSerially(e.ANN, params) {
		sc = &selCount{}
		params.Filter = sc.wrap(cp, opts.Deleted)
	} else {
		params.Filter = visitFilter(cp, opts.Deleted)
	}
	res, err := e.probe(e.ANN, q, k, params, opts.Span)
	if err == nil && sc != nil && sc.evaluated >= minSelEvals {
		e.recordMeasuredSel(preds, sc.admitted, sc.evaluated)
	}
	return res, err
}

// indexOrFlat answers an unpredicated top-k over the live rows: the
// ANN index when there is one, the exhaustive scan otherwise.
func (e *Env) indexOrFlat(q []float32, k int, opts Options) ([]topk.Result, error) {
	if e.ANN == nil {
		return e.bruteForce(q, k, nil, nil, opts)
	}
	params := opts.params()
	params.Filter = visitFilter(nil, opts.Deleted)
	return e.probe(e.ANN, q, k, params, opts.Span)
}

// Plan chooses an execution plan for a (k, preds) query shape without
// executing anything. policy must be "": the optimizer is the only
// policy here, and any other value is a planner.ErrPolicy — a caller
// forcing a plan (planner.ParsePolicy) runs it with Execute. Search
// composes Plan and Execute; batch callers plan once here and reuse the
// plan for every query in the batch. span, when non-nil, receives the
// "plan" stage span.
//
// The optimizer is planner.CostBased over the query's sampled
// selectivity and, once the Env's statistics (Stats, or its own
// tracker) back them, the measured probe cost and cost ratios
// (planner.AdaptiveEnv); while they are cold it plans with the static
// defaults. The sampled estimate is used for plan choice only; the
// selectivity histograms are fed measured survivor fractions by the
// execution paths (bitmap cardinalities, per-row filter pass rates).
func (e *Env) Plan(k int, preds []filter.Predicate, policy string, span *obs.Span) (planner.Plan, error) {
	var cp *filter.Compiled
	if len(preds) > 0 && e.Attrs != nil {
		var err error
		if cp, err = e.Attrs.Compile(preds); err != nil {
			return planner.Plan{}, err
		}
	}
	return e.plan(k, cp, policy, span)
}

// plan selects the plan for a query whose predicates are already
// compiled (cp nil plans as unfiltered). When traced, the "plan" span
// carries the optimizer's inputs — index_comps and attr_cost_ppm, each
// tagged "measured" or "default" — so a plan that depends on served
// history can be explained from the trace.
func (e *Env) plan(k int, cp *filter.Compiled, policy string, span *obs.Span) (planner.Plan, error) {
	if policy != "" {
		return planner.Plan{}, fmt.Errorf("%w %q: the executor plans with the optimizer only; run a forced plan with Execute", planner.ErrPolicy, policy)
	}
	psp := span.Start("plan")
	start := time.Now()
	env := planner.Env{
		N: e.N, K: k, HasIndex: e.ANN != nil, Selectivity: 1,
	}
	if qi, ok := e.ANN.(index.Quantized); ok && qi.QuantizedScan() {
		// Mark the index as quantized without a static discount: the
		// sq8 LUT scan is no cheaper per comparison than the float32
		// kernel (planner.Env.QuantRatio). Only a measured ratio below
		// 1 discounts the probe.
		env.QuantRatio = 1
	}
	if cp != nil {
		sel := cp.EstimateSelectivity(256)
		env.Selectivity = sel
		psp.Annotate("selectivity_ppm", int64(sel*1e6))
	}
	env = planner.AdaptiveEnv(env, e.observed())
	plan := planner.CostBased(env)
	if psp != nil {
		in := env.Normalized()
		psp.Annotate("index_comps", int64(in.IndexComps))
		psp.Tag("index_comps_source", inputSource(env.IndexComps))
		psp.Annotate("attr_cost_ppm", int64(in.AttrCostRatio*1e6))
		psp.Tag("attr_cost_source", inputSource(env.AttrCostRatio))
	}
	psp.Tag("plan", plan.Kind.String())
	stagePlan.Observe(time.Since(start).Seconds())
	psp.End()
	return plan, nil
}

// inputSource names where an optimizer input came from: AdaptiveEnv
// sets only the inputs it measured, the rest plan at their defaults.
func inputSource(v float64) string {
	if v > 0 {
		return "measured"
	}
	return "default"
}

// observed assembles the planner's measured statistics from the Env's
// tracker (zero-valued before any query has run — AdaptiveEnv then
// changes nothing).
func (e *Env) observed() planner.Observed {
	st := e.tracker()
	var o planner.Observed
	o.MeanProbeComps, o.ProbeCount = st.MeanProbeComps()
	// Timing calibration: ratios are only meaningful against a measured
	// full-precision baseline, and trust is gated by the smaller of the
	// two scan counts behind each ratio.
	if cal := st.Calibration(); cal.NsPerComp > 0 {
		if cal.NsPerAttrEval > 0 {
			o.AttrCostRatio = cal.NsPerAttrEval / cal.NsPerComp
			o.AttrObservations = min(cal.CompScans, cal.AttrScans)
		}
		if cal.NsPerQuantComp > 0 {
			o.QuantRatio = cal.NsPerQuantComp / cal.NsPerComp
			o.QuantObservations = min(cal.CompScans, cal.QuantScans)
		}
	}
	return o
}

// Search plans (Plan: policy must be "") and executes in one step.
func (e *Env) Search(q []float32, k int, preds []filter.Predicate, opts Options, policy string) ([]topk.Result, planner.Plan, error) {
	// One compile serves planning (the selectivity sample) and execution.
	cp, err := e.compile(preds)
	if err != nil {
		return nil, planner.Plan{}, err
	}
	plan, err := e.plan(k, cp, policy, opts.Span)
	if err != nil {
		return nil, planner.Plan{}, err
	}
	if err := e.checkQuery(q, k); err != nil {
		return nil, plan, err
	}
	res, err := e.execute(plan, q, k, preds, cp, opts)
	return res, plan, err
}

// SearchBatch answers a batch of queries (Section 2.1(3), batched
// queries), fanning out over the shared worker pool — the same pool
// intra-query partitioned scans draw from, so batch × intra-query
// nesting cannot oversubscribe the machine. Results align with the
// input order.
//
// A failing query does not discard the others: its slot is nil and the
// returned error (joined across failures) wraps each failing query's
// index, mirroring the partial-results philosophy of the distributed
// read path. Callers that need all-or-nothing can treat any non-nil
// error as fatal.
func (e *Env) SearchBatch(p planner.Plan, qs [][]float32, k int, preds []filter.Predicate, opts Options) ([][]topk.Result, error) {
	// One compile serves the whole batch: a Compiled is immutable.
	cp, err := e.compile(preds)
	if err != nil {
		return make([][]topk.Result, len(qs)), err
	}
	out := make([][]topk.Result, len(qs))
	errs := make([]error, len(qs))
	pool.Default().Run(len(qs), func(i int) {
		if errs[i] = e.checkQuery(qs[i], k); errs[i] == nil {
			out[i], errs[i] = e.execute(p, qs[i], k, preds, cp, opts)
		}
	})
	var failed []error
	for i, err := range errs {
		if err != nil {
			out[i] = nil
			failed = append(failed, fmt.Errorf("query %d: %w", i, err))
		}
	}
	return out, errors.Join(failed...)
}

// SearchRange answers a range query: all (admitted) vectors within the
// given distance threshold. It is an exhaustive operator: predicates
// and the deletion mask in opts become one allowlist (the "filter"
// stage, as in Execute), and the scan over it records a "range_scan"
// span under opts.Span and counts against the flat index family.
func (e *Env) SearchRange(q []float32, radius float32, preds []filter.Predicate, opts Options) ([]topk.Result, error) {
	e.advise(AdviseSequential)
	cp, err := e.compile(preds)
	if err != nil {
		return nil, err
	}
	params := opts.params()
	if params.Allow, _, err = e.filterStage(preds, cp, opts); err != nil {
		return nil, err
	}
	var st index.SearchStats
	params.Stats = &st
	sp := opts.Span.Start("range_scan")
	start := time.Now()
	res, err := e.Flat.SearchRange(q, radius, params)
	stageRange.Observe(time.Since(start).Seconds())
	releaseBitmap(params.Allow)
	sp.Annotate("distance_comps", st.DistanceComps)
	sp.Annotate("hits", int64(len(res)))
	sp.End()
	obs.IndexProbes.With("flat").Inc()
	obs.IndexDistanceComps.With("flat").Add(st.DistanceComps)
	return res, err
}

// ReplayANN answers a (k, preds) query with one ANN index probe at
// explicitly pinned search parameters (ef for graph/tree families,
// nprobe for partition families), bypassing plan selection AND the
// serving-path metrics — no probe counters, no stage histograms, no
// stats observations. The recall tuner uses it to replay sampled
// queries at every candidate parameter value against the exact ground
// truth on a pinned snapshot: the returned SearchStats carries the
// probe's distance-computation cost, which together with the recall
// against ExactGroundTruth forms one point on the recall-vs-cost
// frontier. Predicates are pushed down as a traversal filter (the
// visit-first shape), so the replay measures the index's filtered
// behavior without depending on the plan the serving path happened to
// pick. deleted mirrors Options.Deleted (deletion mask).
func (e *Env) ReplayANN(q []float32, k, ef, nprobe int, preds []filter.Predicate, deleted *bitset.Bitset) ([]topk.Result, index.SearchStats, error) {
	var st index.SearchStats
	if e.ANN == nil {
		return nil, st, fmt.Errorf("executor: replay requires an ANN index")
	}
	cp, err := e.compile(preds)
	if err != nil {
		return nil, st, err
	}
	params := Options{Ef: ef, NProbe: nprobe}.params()
	params.Filter = visitFilter(cp, deleted)
	params.Stats = &st
	res, err := e.ANN.Search(q, k, params)
	return res, st, err
}

// ExactGroundTruth answers a (k, preds) query with the exhaustive
// exact scan, bypassing plan selection AND the serving-path metrics:
// no probe counters, no stage histograms, no stats observations. The
// recall auditor uses it to compute ground truth on a pinned snapshot
// without the audit inflating the very serving statistics it is
// meant to validate. deleted mirrors Options.Deleted (deletion mask).
func (e *Env) ExactGroundTruth(q []float32, k int, preds []filter.Predicate, deleted *bitset.Bitset) ([]topk.Result, error) {
	e.advise(AdviseSequential)
	cp, err := e.compile(preds)
	if err != nil {
		return nil, err
	}
	var params index.Params
	params.Allow, _, _ = e.allowBitmap(cp, deleted, nil)
	res, err := e.Flat.Search(q, k, params)
	releaseBitmap(params.Allow)
	return res, err
}
