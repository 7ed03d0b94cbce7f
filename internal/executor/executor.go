// Package executor implements the Query Executor of Figure 1: the
// similarity-projection + top-k operators, the hybrid scan operators
// (block-first via bitmap, visit-first via traversal predicate,
// post-filter with over-fetch), batched execution, multi-vector
// queries via aggregate scores, and windowed queries: range queries
// (Section 2.1) and incremental paging, one of the open problems of
// Section 2.6.
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
	"vdbms/internal/planner"
	"vdbms/internal/pool"
	"vdbms/internal/stats"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
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
}

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
	// RerankK overrides the exact re-rank width of quantized index
	// scans for this query (0 keeps the index's configured default;
	// ignored by full-precision indexes).
	RerankK int
	// Record, when non-nil, is the caller's record of the query: the
	// operators fill it, the Env publishes it, and the caller reads it
	// afterwards (its trace, its plan). Nil means the Env fills a local
	// record. SearchBatch ignores it and returns one record per query.
	Record *Record
	// Ctx, when non-nil, cancels the query: the allowlist build polls it
	// every bitmapBlock rows and the index probe carries it in
	// index.Params, so a cancelled query stops within one block or
	// expansion and returns Ctx.Err().
	Ctx context.Context
	// Window keeps the query's hits inside (After, Radius] of the
	// (dist, row) order (topk.Window). The exact scan applies it in its
	// one bounded pass; an ANN probe pages past a cursor by deepening
	// (Env.deepen) and takes no radius.
	Window topk.Window
}

func (o Options) params() index.Params {
	return index.Params{Ef: o.Ef, NProbe: o.NProbe, RerankK: o.RerankK, Ctx: o.Ctx}
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

// allowlist builds the block-first allowlist of an exhaustive operator
// over all N rows: the predicate's match bits from the column-at-a-time
// evaluator, then the deletion mask cleared out of them word-wise. It
// returns nil when nothing constrains the scan; otherwise the caller
// owes a releaseBitmap. With a predicate the build is the query's
// "filter" stage: timed into rec with the predicate's exact match count
// (taken before deletions are folded in) as its survivors.
func (e *Env) allowlist(cp *filter.Compiled, params *index.Params, del *bitset.Bitset, rec *Record) (*bitset.Bitset, error) {
	if cp == nil && del == nil {
		return nil, nil
	}
	start := time.Now()
	bm, err := e.matches(0, cp, params)
	if cp != nil {
		if err == nil {
			rec.Survivors = int64(bm.Count())
		}
		rec.stage(stageFilter, time.Since(start))
	}
	if err != nil {
		return nil, err
	}
	if del != nil {
		bm.AndNot(del)
	}
	return bm, nil
}

// matches takes a pooled bitmap over the Env's rows and sets in it the
// rows of [from, N) that cp admits; with cp nil it sets every row, those
// below from included. The evaluation polls the query's context before
// every bitmapBlock rows and gives up with its error, the bitmap
// released, once it has ended.
func (e *Env) matches(from int, cp *filter.Compiled, params *index.Params) (*bitset.Bitset, error) {
	bm := bitmapPool.Get().(*bitset.Bitset)
	bm.Reset(e.N)
	if cp == nil {
		bm.SetAll()
		return bm, nil
	}
	done := params.Done()
	for lo := from; lo < e.N; lo += bitmapBlock {
		if index.Stopped(done) {
			releaseBitmap(bm)
			return nil, params.Err()
		}
		cp.EvalRange(bm, lo, min(lo+bitmapBlock, e.N))
	}
	return bm, nil
}

// countingFilter is visitFilter for a serial traversal: it also tallies
// the predicate checks it makes on live rows, and how many pass, into
// rec.Evaluated and rec.Admitted — a query-local selectivity sample. The
// counters are plain words of the query's record: the filter is attached
// only to probes that call it from a single goroutine (see
// filtersSerially), so no cache line is shared between cores.
func countingFilter(cp *filter.Compiled, del *bitset.Bitset, rec *Record) func(id int64) bool {
	match := cp.Matcher()
	return func(id int64) bool {
		if del != nil && del.Test(int(id)) {
			return false
		}
		rec.Evaluated++
		if match(id) {
			rec.Admitted++
			return true
		}
		return false
	}
}

// filtersSerially reports whether idx will call params.Filter from one
// goroutine only: every family does but a flat scan split across pool
// workers.
func filtersSerially(idx index.Index, params index.Params) bool {
	f, ok := idx.(*index.Flat)
	return !ok || !f.FiltersConcurrently(params)
}

// Execute runs a (possibly predicated) top-k query under the given
// plan. preds may be empty, in which case every plan degenerates to a
// plain index or flat scan.
func (e *Env) Execute(p planner.Plan, q []float32, k int, preds []filter.Predicate, opts Options) (res []topk.Result, err error) {
	rec := opts.Record
	if rec == nil {
		rec = new(Record)
	}
	defer func() { e.publish(rec, err) }()
	if err = e.checkQuery(q, k); err != nil {
		return nil, err
	}
	cp, err := e.compile(preds)
	if err != nil {
		return nil, err
	}
	return e.execute(p, q, k, preds, cp, opts, rec)
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

// execute dispatches a checked query to its plan's operator, recording
// into rec. cp is preds compiled against this Env (nil when preds is
// empty); preds itself travels along only to name the columns a
// measured selectivity is recorded under.
func (e *Env) execute(p planner.Plan, q []float32, k int, preds []filter.Predicate, cp *filter.Compiled, opts Options, rec *Record) ([]topk.Result, error) {
	rec.Plan, rec.preds = p, preds
	switch p.Kind {
	case planner.BruteForce:
		return e.bruteForce(q, k, cp, opts, rec)
	case planner.PreFilter:
		return e.preFilter(q, k, cp, opts, rec)
	case planner.PostFilter:
		return e.postFilter(q, k, cp, p.Alpha, opts, rec)
	case planner.SingleStage:
		return e.singleStage(q, k, cp, opts, rec)
	default:
		return nil, fmt.Errorf("executor: unknown plan %v", p.Kind)
	}
}

// probe runs one index scan over all N rows (searchAll), recording its
// time as the index_probe stage, its SearchStats against the index
// family that served it and its tail's work in rec. Every plan
// funnels its index/flat scans through here. The exact scan keeps the
// top k inside win in its one pass; an ANN probe with a cursor in win
// deepens past it (deepen), and one with a radius is refused. A query
// whose context has ended is refused here — the one check families
// that do not poll params.Ctx themselves get — and records nothing.
func (e *Env) probe(idx index.Index, q []float32, k int, params index.Params, cp *filter.Compiled, del *bitset.Bitset, win topk.Window, rec *Record) ([]topk.Result, error) {
	if err := params.Err(); err != nil {
		return nil, err
	}
	exact := idx == index.Index(e.Flat)
	if win.Radius > 0 && !exact {
		return nil, fmt.Errorf("executor: a radius is answered by the exact scan, not by %s", idx.Name())
	}
	params.Stats = &rec.Probe
	start := time.Now()
	var res []topk.Result
	var tail tailWork
	var err error
	width := k
	switch {
	case exact:
		res, err = e.Flat.SearchWindow(q, k, params, win)
	case win.After != nil:
		res, width, tail, err = e.deepen(idx, q, k, params, cp, del, *win.After)
		rec.paged = true
	default:
		res, tail, err = e.searchAll(idx, q, k, params, cp, del)
	}
	rec.stage(stageProbe, time.Since(start))
	rec.tail.add(tail)
	e.probed(rec, idx, width)
	return res, err
}

// deepen answers the k hits strictly after the cursor from an ANN index
// by the "restart with larger k" strategy the paper notes indexes force
// on incremental search (Section 2.6(5)), keeping no state between
// pages: it probes (searchAll, the tail included) for the top depth =
// 2k, 4k, ... at ef >= depth until k hits past the cursor come back or
// the depth reaches 4 × rows. An unset ef stays unset: each family
// that reads ef defaults to at least 4·depth for k = depth, and a hit a
// shallow beam misses is skipped for good once the cursor passes it.
// With ef unset the probe for every row is the last: a deeper one would
// repeat it. It returns those hits in probe order, the last depth and
// the probes' tail work.
func (e *Env) deepen(idx index.Index, q []float32, k int, params index.Params, cp *filter.Compiled, del *bitset.Bitset, after topk.Result) ([]topk.Result, int, tailWork, error) {
	var tw tailWork
	for depth := 2 * k; ; depth *= 2 {
		if err := params.Err(); err != nil {
			return nil, depth, tw, err
		}
		p := params
		if p.Ef > 0 {
			p.Ef = max(p.Ef, depth)
		}
		res, t, err := e.searchAll(idx, q, min(depth, e.N), p, cp, del)
		tw.add(t)
		if err != nil {
			return nil, depth, tw, err
		}
		page := res[:0]
		for _, r := range res {
			if len(page) < k && topk.Less(after, r) {
				page = append(page, r)
			}
		}
		if len(page) == k || depth >= 4*e.N || depth >= e.N && params.Ef <= 0 {
			return page, depth, tw, nil
		}
	}
}

// tailWork is what the scan of an unindexed tail cost beside its probe:
// the rows scored and the scan's time, and the time the tail's
// allowlist took with the predicate evaluations in it.
type tailWork struct {
	rows, evals int64
	scan, mask  time.Duration
}

func (t *tailWork) add(o tailWork) {
	t.rows += o.rows
	t.evals += o.evals
	t.scan += o.scan
	t.mask += o.mask
}

// searchAll answers the top k of idx over every row of the Env. An ANN
// index covers the rows [0, idx.Size()) it was built over; the rows past
// them, the unindexed tail of a collection that grew since the build,
// are scanned exactly (Flat.SearchTail) from the probe's k-th distance
// and merged with its hits by (dist, id). The tail admits through an
// allowlist: params.Allow when the plan built one over all rows, else
// the rows of the tail that cp admits and del does not hide. It returns
// the hits and the tail's work; params.Stats counts the tail rows too.
func (e *Env) searchAll(idx index.Index, q []float32, k int, params index.Params, cp *filter.Compiled, del *bitset.Bitset) ([]topk.Result, tailWork, error) {
	var tw tailWork
	res, err := idx.Search(q, k, params)
	from := idx.Size()
	if err != nil || from >= e.N {
		return res, tw, err
	}
	tail := params
	tail.Filter = nil
	if tail.Allow == nil && (cp != nil || (del != nil && del.Len() > from)) {
		start := time.Now()
		if tail.Allow, err = e.matches(from, cp, &params); err != nil {
			return nil, tw, err
		}
		if del != nil {
			tail.Allow.AndNot(del)
		}
		tw.mask = time.Since(start)
		if cp != nil {
			tw.evals = int64(e.N - from)
		}
		defer releaseBitmap(tail.Allow)
	}
	if tail.Stats == nil {
		tail.Stats = new(index.SearchStats)
	}
	before := tail.Stats.DistanceComps
	start := time.Now()
	res, err = e.Flat.SearchTail(q, k, tail, from, res)
	tw.scan = time.Since(start)
	tw.rows = tail.Stats.DistanceComps - before
	return res, tw, err
}

// bruteForce is the exhaustive scan (plan A): the predicate is
// evaluated column-at-a-time into an allowlist — an exact selectivity
// measurement, recorded as the filter stage — and the flat index
// scores exactly the surviving live rows.
func (e *Env) bruteForce(q []float32, k int, cp *filter.Compiled, opts Options, rec *Record) ([]topk.Result, error) {
	params := opts.params()
	var err error
	if params.Allow, err = e.allowlist(cp, &params, opts.Deleted, rec); err != nil {
		return nil, err
	}
	res, err := e.probe(e.Flat, q, k, params, nil, nil, opts.Window, rec)
	releaseBitmap(params.Allow)
	return res, err
}

// preFilter builds the bitmap and hands it to the index as a
// block-first allowlist (plan B). When the survivor set is tiny the
// index scan is skipped for an exact scan over survivors, matching the
// behavior AnalyticDB-V's optimizer picks in that regime.
func (e *Env) preFilter(q []float32, k int, cp *filter.Compiled, opts Options, rec *Record) ([]topk.Result, error) {
	if cp == nil {
		return e.indexOrFlat(q, k, opts, rec)
	}
	params := opts.params()
	var err error
	if params.Allow, err = e.allowlist(cp, &params, opts.Deleted, rec); err != nil {
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
	if e.ANN != nil && rec.Survivors > int64(exactCutoff) {
		idx = e.ANN
	}
	res, err := e.probe(idx, q, k, params, cp, opts.Deleted, opts.Window, rec)
	releaseBitmap(params.Allow)
	return res, err
}

// postFilter over-fetches alpha*k unfiltered candidates and applies
// the predicate afterwards (plan C). It may return fewer than k
// results — the documented trade-off of this plan. With no predicate
// there is nothing to over-fetch for: it asks the index for k, so the
// probe runs at the ef the query resolved rather than max(ef, alpha*k).
func (e *Env) postFilter(q []float32, k int, cp *filter.Compiled, alpha int, opts Options, rec *Record) ([]topk.Result, error) {
	if cp == nil {
		return e.indexOrFlat(q, k, opts, rec)
	}
	if alpha <= 0 {
		alpha = 4
	}
	// alpha*k capped at N; alpha is capped first so the product cannot
	// overflow.
	cands, err := e.indexOrFlat(q, min(min(alpha, e.N)*k, e.N), opts, rec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	// Every fetched candidate is evaluated (the cost model already
	// charges alpha*k attribute checks); only the first k admitted are
	// kept. Checking the tail keeps the measured pass rate below a
	// deterministic sample size instead of stopping wherever the k-th
	// admission happened to land. The candidate set is distance-biased,
	// but its pass rate is still a real observation of the predicate on
	// live rows.
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
	rec.stage(stagePostFilter, time.Since(start))
	rec.Fetched, rec.Kept = int64(len(cands)), int64(len(out))
	rec.Evaluated, rec.Admitted = int64(len(cands)), admitted
	return out, nil
}

// singleStage pushes the predicate into the traversal (plan D,
// visit-first scan): the index calls the per-id matcher on the nodes it
// visits. On a serial traversal the pass rate over visited live rows
// is recorded as a query-local selectivity sample. Without an ANN
// index the plan is the exhaustive scan.
func (e *Env) singleStage(q []float32, k int, cp *filter.Compiled, opts Options, rec *Record) ([]topk.Result, error) {
	if e.ANN == nil {
		return e.bruteForce(q, k, cp, opts, rec)
	}
	params := opts.params()
	if cp != nil && filtersSerially(e.ANN, params) {
		params.Filter = countingFilter(cp, opts.Deleted, rec)
	} else {
		params.Filter = visitFilter(cp, opts.Deleted)
	}
	return e.probe(e.ANN, q, k, params, cp, opts.Deleted, opts.Window, rec)
}

// indexOrFlat answers an unpredicated top-k over the live rows: the
// ANN index when there is one, the exhaustive scan otherwise.
func (e *Env) indexOrFlat(q []float32, k int, opts Options, rec *Record) ([]topk.Result, error) {
	if e.ANN == nil {
		return e.bruteForce(q, k, nil, opts, rec)
	}
	params := opts.params()
	params.Filter = visitFilter(nil, opts.Deleted)
	return e.probe(e.ANN, q, k, params, nil, opts.Deleted, opts.Window, rec)
}

// Plan chooses an execution plan for a (k, preds) query shape without
// executing anything. policy must be "": the optimizer is the only
// policy here, and any other value is a planner.ErrPolicy — a caller
// forcing a plan (planner.ParsePolicy) runs it with Execute. Search
// composes Plan and Execute; batch callers plan once here and reuse the
// plan for every query in the batch. rec, when non-nil, receives the
// plan stage (nil plans into a local record); either way it is
// published.
//
// The optimizer is planner.CostBased over the query's sampled
// selectivity and, once the Env's statistics (Stats, or its own
// tracker) back them, the measured probe cost and cost ratios
// (planner.AdaptiveEnv); while they are cold it plans with the static
// defaults. The sampled estimate is used for plan choice only; the
// selectivity histograms are fed measured survivor fractions by the
// execution paths (bitmap cardinalities, per-row filter pass rates).
func (e *Env) Plan(k int, preds []filter.Predicate, policy string, rec *Record) (p planner.Plan, err error) {
	if rec == nil {
		rec = new(Record)
	}
	defer func() { e.publish(rec, err) }()
	var cp *filter.Compiled
	if len(preds) > 0 && e.Attrs != nil {
		if cp, err = e.Attrs.Compile(preds); err != nil {
			return planner.Plan{}, err
		}
	}
	rec.preds = preds
	err = e.plan(k, cp, policy, rec)
	return rec.Plan, err
}

// plan selects the plan for a query whose predicates are already
// compiled (cp nil plans as unfiltered), recording the plan stage and
// the optimizer's inputs into rec — so a plan that depends on served
// history can be explained from the trace.
func (e *Env) plan(k int, cp *filter.Compiled, policy string, rec *Record) error {
	if policy != "" {
		return fmt.Errorf("%w %q: the executor plans with the optimizer only; run a forced plan with Execute", planner.ErrPolicy, policy)
	}
	start := time.Now()
	env := planner.Env{N: e.N, K: k, HasIndex: e.ANN != nil, Selectivity: 1}
	if e.ANN != nil {
		env.Tail = max(e.N-e.ANN.Size(), 0)
	}
	if quantized(e.ANN) {
		// Mark the index as quantized without a static discount: the
		// sq8 LUT scan is no cheaper per comparison than the float32
		// kernel (planner.Env.QuantRatio). Only a measured ratio below
		// 1 discounts the probe.
		env.QuantRatio = 1
	}
	if cp != nil {
		env.Selectivity = cp.EstimateSelectivity(256)
	}
	rec.Inputs = planner.AdaptiveEnv(env, e.observed())
	rec.Plan = planner.CostBased(rec.Inputs)
	rec.stage(stagePlan, time.Since(start))
	return nil
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
func (e *Env) Search(q []float32, k int, preds []filter.Predicate, opts Options, policy string) (res []topk.Result, p planner.Plan, err error) {
	rec := opts.Record
	if rec == nil {
		rec = new(Record)
	}
	defer func() { e.publish(rec, err) }()
	// One compile serves planning (the selectivity sample) and execution.
	cp, err := e.compile(preds)
	if err != nil {
		return nil, planner.Plan{}, err
	}
	if err = e.plan(k, cp, policy, rec); err != nil {
		return nil, planner.Plan{}, err
	}
	if err = e.checkQuery(q, k); err != nil {
		return nil, rec.Plan, err
	}
	res, err = e.execute(rec.Plan, q, k, preds, cp, opts, rec)
	return res, rec.Plan, err
}

// SearchBatch answers a batch of queries (Section 2.1(3), batched
// queries), fanning out over the shared worker pool — the same pool
// intra-query partitioned scans draw from, so batch × intra-query
// nesting cannot oversubscribe the machine. Results and records (one
// per query, each published) align with the input order.
//
// A failing query does not discard the others: its slot is nil, its
// record carries its error, and the returned error (joined across
// failures) wraps each failing query's index, mirroring the
// partial-results philosophy of the distributed read path. Callers that
// need all-or-nothing can treat any non-nil error as fatal.
func (e *Env) SearchBatch(p planner.Plan, qs [][]float32, k int, preds []filter.Predicate, opts Options) ([][]topk.Result, []Record, error) {
	out := make([][]topk.Result, len(qs))
	recs := make([]Record, len(qs))
	// One compile serves the whole batch: a Compiled is immutable.
	cp, cerr := e.compile(preds)
	pool.Default().Run(len(qs), func(i int) {
		err := cerr
		if err == nil {
			err = e.checkQuery(qs[i], k)
		}
		if err == nil {
			out[i], err = e.execute(p, qs[i], k, preds, cp, opts, &recs[i])
		}
		e.publish(&recs[i], err)
	})
	if cerr != nil {
		return out, recs, cerr
	}
	var failed []error
	for i := range recs {
		if err := recs[i].Err; err != nil {
			out[i] = nil
			failed = append(failed, fmt.Errorf("query %d: %w", i, err))
		}
	}
	return out, recs, errors.Join(failed...)
}

// ReplayANN answers a (k, preds) query with one single-stage ANN probe
// at explicitly pinned search parameters (ef for graph/tree families,
// nprobe for partition families), bypassing plan selection, and
// publishes nothing: no probe counters, no stage histograms, no stats
// observations. The recall loop uses it to replay sampled queries at
// every candidate parameter value against the exact ground truth on a
// pinned snapshot: the returned SearchStats carries the probe's
// distance-computation cost, which together with the recall against
// ExactGroundTruth forms one point on the recall-vs-cost frontier.
// Predicates are pushed down as a traversal filter (the visit-first
// shape), so the replay measures the index's filtered behavior without
// depending on the plan the serving path happened to pick. deleted
// mirrors Options.Deleted (deletion mask).
func (e *Env) ReplayANN(q []float32, k, ef, nprobe int, preds []filter.Predicate, deleted *bitset.Bitset) ([]topk.Result, index.SearchStats, error) {
	if e.ANN == nil {
		return nil, index.SearchStats{}, fmt.Errorf("executor: replay requires an ANN index")
	}
	cp, err := e.compile(preds)
	if err != nil {
		return nil, index.SearchStats{}, err
	}
	var rec Record
	res, err := e.singleStage(q, k, cp, Options{Ef: ef, NProbe: nprobe, Deleted: deleted}, &rec)
	return res, rec.Probe, err
}

// ExactGroundTruth answers a (k, preds) query with the exhaustive exact
// scan, bypassing plan selection, and publishes nothing: no probe
// counters, no stage histograms, no stats observations. The recall loop
// uses it to compute ground truth on a pinned snapshot without the pass
// inflating the very serving statistics it is meant to validate.
// deleted mirrors Options.Deleted (deletion mask).
func (e *Env) ExactGroundTruth(q []float32, k int, preds []filter.Predicate, deleted *bitset.Bitset) ([]topk.Result, error) {
	cp, err := e.compile(preds)
	if err != nil {
		return nil, err
	}
	var rec Record
	return e.bruteForce(q, k, cp, Options{Deleted: deleted}, &rec)
}
