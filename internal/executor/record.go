package executor

import (
	"time"

	"vdbms/internal/filter"
	"vdbms/internal/index"
	"vdbms/internal/obs"
	"vdbms/internal/planner"
	"vdbms/internal/stats"
)

// Pipeline stages of one query, in execution order: a record keeps one
// duration per stage, and its trace lists the stages that ran in this
// order.
const (
	stagePlan = iota
	stageFilter
	stageProbe
	stagePostFilter
	numStages
)

var stageNames = [numStages]string{"plan", "filter", "index_probe", "post_filter"}

// stageSeconds are the stage histograms, bound once so publishing pays
// one observe per stage that ran — never a labeled lookup. Together they
// decompose vdbms_search_latency_seconds into where the time goes.
var stageSeconds = func() (h [numStages]*obs.Histogram) {
	for s, name := range stageNames {
		h[s] = obs.SearchStageSeconds.With(name)
	}
	return h
}()

// Record is one query's account of its own execution: the plan and what
// it was planned from, the time each stage took, and what the filter and
// the index probe counted. It is a plain value owned by the caller, one
// per query; the operators write their facts into it and nowhere else.
// Env.publish then feeds the stage histograms, the per-index counters
// and the statistics tracker from it, and Trace renders it as the
// query's span tree, so every view reads the same clock readings and
// counters. Its Probe field is the index's SearchStats target, so a
// record costs a query no allocation of its own.
type Record struct {
	// Plan is the executed plan. Inputs is what the optimizer planned it
	// from when the plan stage ran: the static inputs with the measured
	// statistics folded in — an input still zero planned at its default.
	Plan   planner.Plan
	Inputs planner.Env

	// stages holds each stage's duration; ran marks the stages that ran.
	stages [numStages]time.Duration
	ran    uint8

	// Survivors is the filter stage's predicate match count over all
	// rows. Fetched and Kept are the post-filter's candidates and the
	// ones it returned. Evaluated and Admitted count the predicate checks
	// a post-filter or a serial traversal made and passed — a measured
	// selectivity sample.
	Survivors           int64
	Fetched, Kept       int64
	Evaluated, Admitted int64

	// Index names the index family the query probed and K the width each
	// probe asked for; Probes counts the probes (one per query vector of
	// a multi-vector query) and Probe sums their counters. ANN tells an
	// index probe from an exact scan, Quantized a compressed-code scan
	// from a full-precision one. tail is the probes' scans past the ANN
	// index's coverage, timed within the probe stage; Probe.DistanceComps
	// counts the tail rows too (Tail). paged marks an ANN probe deepened
	// past a page cursor (Env.deepen): its work is that of widths the
	// planner never plans, so it teaches the cost model nothing.
	Index     string
	K         int
	Probes    int
	Probe     index.SearchStats
	ANN       bool
	Quantized bool
	tail      tailWork
	paged     bool

	// Err is the query's outcome: nil when it answered.
	Err error

	// preds names the columns a measured selectivity is recorded under.
	preds []filter.Predicate
}

// stage adds d to stage s and marks it as run.
func (r *Record) stage(s int, d time.Duration) {
	r.stages[s] += d
	r.ran |= 1 << s
}

func (r *Record) has(s int) bool { return r.ran&(1<<s) != 0 }

// Tail is the rows past the ANN index's coverage the probes scored
// exactly.
func (r *Record) Tail() int64 { return r.tail.rows }

// probed records which index a probe ran on and at what width; the
// probe itself counted its work straight into r.Probe (index.Params.Stats
// accumulates, so the probes of a multi-vector query sum there).
func (e *Env) probed(r *Record, idx index.Index, k int) {
	r.Index, r.K = idx.Name(), k
	r.ANN = idx == e.ANN
	r.Quantized = r.ANN && quantized(idx)
	r.Probes++
}

// quantized reports whether idx scans compressed codes.
func quantized(idx index.Index) bool {
	qi, ok := idx.(index.Quantized)
	return ok && qi.QuantizedScan()
}

// minSelEvals is the minimum per-row predicate evaluations before a
// post-filter's or traversal's measured pass rate is recorded into the
// selectivity histograms — below it one scan is too small a sample to be
// a useful observation. It is deliberately low enough that a typical
// post-filter over-fetch (alpha*k) still records: per-scan noise
// averages out across the histogram's many observations. Exact
// measurements (the filter stage's bitmap cardinality) are recorded
// regardless.
const minSelEvals = 16

// publish is the one place a query's record leaves the query. It takes
// err as the query's outcome, observes every stage that ran, adds the
// probes to the per-index counters and — for a query that answered —
// feeds the statistics tracker: probe cost and comparison timing from
// the probe stage, attribute-evaluation timing and the exact selectivity
// from the filter stage (a bitmap build evaluates the predicate on every
// row), and the post-filter's or traversal's pass rate. Cancelled or
// failed work is timed and counted but teaches the cost model nothing:
// its truncated comps would bias the observed costs.
func (e *Env) publish(r *Record, err error) {
	r.Err = err
	for s, h := range stageSeconds {
		if r.has(s) {
			h.Observe(r.stages[s].Seconds())
		}
	}
	if r.Probes > 0 {
		obs.IndexProbes.With(r.Index).Add(int64(r.Probes))
		obs.IndexDistanceComps.With(r.Index).Add(r.Probe.DistanceComps)
		obs.IndexNodesVisited.With(r.Index).Add(r.Probe.NodesVisited)
		obs.IndexBucketsProbed.With(r.Index).Add(r.Probe.BucketsProbed)
		obs.IndexPartitions.With(r.Index).Add(r.Probe.Partitions)
	}
	if err != nil {
		return
	}
	tr := e.tracker()
	if r.has(stageFilter) {
		tr.RecordAttrCost(r.stages[stageFilter].Nanoseconds(), int64(e.N))
		recordSel(tr, r.preds, r.Survivors, int64(e.N))
	}
	if r.Evaluated >= minSelEvals {
		recordSel(tr, r.preds, r.Admitted, r.Evaluated)
	}
	if r.has(stageProbe) && !r.paged {
		comps := r.Probe.DistanceComps - r.tail.rows
		if r.ANN {
			// Observed probe cost feeds the cost model; exact scans are
			// excluded — their cost is already exactly N — and so are the
			// tail rows, which the planner costs from the tail's length.
			tr.RecordProbe(int64(r.Probes), comps)
		}
		// Flat probes are the full-precision ns-per-comp baseline the
		// calibrated cost ratios are measured against. A tail is sampled
		// apart from its probe: its scan as full-precision comparisons,
		// its allowlist as predicate evaluations, so that neither skews
		// the index's own (possibly quantized) ns per comp.
		nanos := (r.stages[stageProbe] - r.tail.scan - r.tail.mask).Nanoseconds()
		tr.RecordCompCost(nanos, comps, r.Quantized)
		tr.RecordCompCost(r.tail.scan.Nanoseconds(), r.tail.rows, false)
		tr.RecordAttrCost(r.tail.mask.Nanoseconds(), r.tail.evals)
	}
}

// recordSel feeds one measured selectivity (admitted / evaluated) into
// the histogram of every column the query's predicates reference.
func recordSel(tr *stats.Collection, preds []filter.Predicate, admitted, evaluated int64) {
	if evaluated <= 0 {
		return
	}
	sel := float64(admitted) / float64(evaluated)
	for _, p := range preds {
		tr.RecordSelectivity(p.Column, sel)
	}
}

// Trace renders the record as a span tree: a root named root lasting
// total, and one child per stage that ran, in execution order, carrying
// the stage's counters — the plan's inputs and where each came from, the
// filter's survivors, the probe's work (summed over a multi-vector
// query's probes, its tail rows included) and the post-filter's fetched
// and kept candidates.
func (r *Record) Trace(root string, total time.Duration) *obs.SpanReport {
	rep := &obs.SpanReport{Stage: root, DurationNanos: int64(total)}
	for s, name := range stageNames {
		if !r.has(s) {
			continue
		}
		sp := obs.SpanReport{Stage: name, DurationNanos: int64(r.stages[s]), Annotations: map[string]int64{}}
		a := sp.Annotations
		switch s {
		case stagePlan:
			in := r.Inputs.Normalized()
			sp.Tags = map[string]string{
				"plan":               r.Plan.Kind.String(),
				"index_comps_source": inputSource(r.Inputs.IndexComps),
				"attr_cost_source":   inputSource(r.Inputs.AttrCostRatio),
			}
			a["index_comps"] = int64(in.IndexComps)
			a["attr_cost_ppm"] = int64(in.AttrCostRatio * 1e6)
			if len(r.preds) > 0 {
				a["selectivity_ppm"] = int64(r.Inputs.Selectivity * 1e6)
			}
		case stageFilter:
			a["survivors"] = r.Survivors
		case stageProbe:
			sp.Tags = map[string]string{"index": r.Index}
			a["k"] = int64(r.K)
			a["distance_comps"] = r.Probe.DistanceComps
			for _, c := range []struct {
				key string
				v   int64
			}{
				{"nodes_visited", r.Probe.NodesVisited}, {"greedy_hops", r.Probe.GreedyHops},
				{"buckets_probed", r.Probe.BucketsProbed}, {"io_reads", r.Probe.IOReads},
				{"cache_hits", r.Probe.CacheHits}, {"partitions", r.Probe.Partitions},
				{"abandoned", r.Probe.Abandoned}, {"tail_rows", r.tail.rows},
			} {
				if c.v > 0 {
					a[c.key] = c.v
				}
			}
		case stagePostFilter:
			a["fetched"], a["kept"] = r.Fetched, r.Kept
		}
		rep.Children = append(rep.Children, sp)
	}
	return rep
}

// inputSource names where an optimizer input came from: AdaptiveEnv
// sets only the inputs it measured, the rest plan at their defaults.
func inputSource(v float64) string {
	if v > 0 {
		return "measured"
	}
	return "default"
}
