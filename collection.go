package vdbms

import (
	"context"
	"errors"
	"fmt"
	"math"

	"vdbms/internal/core"
	"vdbms/internal/executor"
	"vdbms/internal/filter"
	"vdbms/internal/obs"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// Schema declares a collection's shape.
type Schema struct {
	// Dim is the vector dimensionality (required).
	Dim int
	// Metric is the similarity score: "l2" (default), "ip", "cosine",
	// "l1", "linf", or "hamming".
	Metric string
	// Attributes maps column names to types: "int", "float", or
	// "string". Attribute columns power hybrid (predicated) queries.
	Attributes map[string]string
	// RebuildFraction controls automatic index rebuilds: when more
	// than this fraction of indexed rows has been mutated, a rebuild
	// starts on a background goroutine and installs atomically when
	// done. Queries never wait for it (see WaitForIndex). Default 0.2.
	RebuildFraction float64
	// Quantization is the default vector codec for indexes created on
	// this collection: "none" (default), "sq8", "pq", or "opq".
	// Quant-capable index families store codes instead of float32 rows,
	// scan them with fused kernels, and re-rank the top RerankK
	// candidates at full precision; families that cannot honor the
	// codec ignore the default. CreateIndex opts override per index.
	Quantization string
	// RerankK is the default approximate candidate count re-scored
	// exactly per query when Quantization is set; 0 picks max(4k, 32).
	RerankK int
}

// Collection is a named vector collection with optional attributes and
// an optional ANN index. All methods are safe for concurrent use.
// Reads are snapshot-isolated: each query runs against the immutable
// epoch current when it started and never blocks on writers or on
// background index rebuilds (DESIGN.md §9 has the exact visibility
// contract).
type Collection struct {
	inner *core.Collection
	dim   int
	attrs map[string]string // column -> declared type
}

// parseSchema converts the public schema into the core one, returning
// the declared column types alongside.
func parseSchema(s Schema) (core.Schema, map[string]string, error) {
	metric := s.Metric
	if metric == "" {
		metric = "l2"
	}
	m, err := vec.ParseMetric(metric)
	if err != nil {
		return core.Schema{}, nil, err
	}
	attrs := map[string]filter.Kind{}
	types := map[string]string{}
	for col, typ := range s.Attributes {
		switch typ {
		case "int":
			attrs[col] = filter.Int64
		case "float":
			attrs[col] = filter.Float64
		case "string":
			attrs[col] = filter.String
		default:
			return core.Schema{}, nil, fmt.Errorf("vdbms: column %q has unknown type %q (want int/float/string)", col, typ)
		}
		types[col] = typ
	}
	return core.Schema{
		Dim:             s.Dim,
		Metric:          m,
		Attributes:      attrs,
		RebuildFraction: s.RebuildFraction,
		Quantization:    s.Quantization,
		RerankK:         s.RerankK,
	}, types, nil
}

func newCollection(name string, s Schema) (*Collection, error) {
	cs, types, err := parseSchema(s)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewCollection(name, cs)
	if err != nil {
		return nil, err
	}
	return &Collection{inner: inner, dim: s.Dim, attrs: types}, nil
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.inner.Name() }

// Dim returns the vector dimensionality.
func (c *Collection) Dim() int { return c.dim }

// Len returns the number of live vectors.
func (c *Collection) Len() int { return c.inner.Len() }

// Insert appends a vector with attribute values (one per schema
// column; use nil when the schema has no attributes) and returns the
// assigned id. Values are checked against the column types the way
// filter operands are: a number converts when that is lossless (7.0
// stores 7 in an int column), and anything else — 2.5 or "seven" on an
// int column — fails with an error wrapping ErrAttrType. The vector is
// copied; the caller keeps ownership of it.
func (c *Collection) Insert(vector []float32, attrs map[string]any) (int64, error) {
	converted, err := c.convertAttrs(attrs)
	if err != nil {
		return 0, err
	}
	return c.inner.Insert(vector, converted)
}

// UpdateVector replaces the vector stored at id.
func (c *Collection) UpdateVector(id int64, vector []float32) error {
	return c.inner.UpdateVector(id, vector)
}

// Delete removes id from all future query results.
func (c *Collection) Delete(id int64) error { return c.inner.Delete(id) }

// Get returns the vector and attributes stored at id.
func (c *Collection) Get(id int64) ([]float32, map[string]any, error) {
	v, vals, err := c.inner.Get(id)
	if err != nil {
		return nil, nil, err
	}
	out := map[string]any{}
	for name, val := range vals {
		switch c.attrs[name] {
		case "int":
			out[name] = val.I
		case "float":
			out[name] = val.F
		default:
			out[name] = val.S
		}
	}
	return v, out, nil
}

// AttributeTypes returns the declared attribute columns and their
// types ("int", "float", "string").
func (c *Collection) AttributeTypes() map[string]string {
	out := make(map[string]string, len(c.attrs))
	for k, v := range c.attrs {
		out[k] = v
	}
	return out
}

// CreateIndex builds an ANN index over the current rows. Kind is an
// index family from IndexKinds; opts are family-specific integer knobs
// (e.g. {"m": 16} for HNSW, {"nlist": 256} for IVF). The build runs
// without blocking concurrent reads or writes and installs atomically
// on return.
func (c *Collection) CreateIndex(kind string, opts map[string]int) error {
	return c.inner.CreateIndex(kind, opts)
}

// DropIndex removes the ANN index; searches fall back to exact scan.
func (c *Collection) DropIndex() { c.inner.DropIndex() }

// IndexInfo reports the index family (empty if none), how many rows
// the build covers, and how many mutations have accrued since.
func (c *Collection) IndexInfo() (kind string, covered, dirty int) {
	return c.inner.IndexInfo()
}

// IndexStatus is IndexInfo plus whether a background rebuild is
// currently running.
func (c *Collection) IndexStatus() (kind string, covered, dirty int, building bool) {
	return c.inner.IndexStatus()
}

// WaitForIndex blocks until no background index rebuild is in flight.
// Queries never need it — a search during a rebuild just uses the
// previous index — but tests and freshness-sensitive callers can use
// it as a barrier after a burst of writes.
func (c *Collection) WaitForIndex() { c.inner.WaitForIndex() }

// Filter is one predicate of a hybrid query. Op is one of
// "=", "!=", "<", "<=", ">", ">=", "in". Value holds an int, float64,
// or string matching the column type ("in" takes a []any).
type Filter struct {
	Column string
	Op     string
	Value  any
	Set    []any
}

// Hit is one search result: the engine's own top-k entry, {ID, Dist},
// handed up without a copy.
type Hit = topk.Result

// SearchRequest describes a vector query.
type SearchRequest struct {
	// Vector is the query vector for single-vector queries.
	Vector []float32
	// Vectors holds multiple query vectors for multi-vector queries;
	// requires EntityColumn.
	Vectors [][]float32
	// K is the number of results (required).
	K int
	// Filters are conjunctive attribute predicates (hybrid query).
	Filters []Filter
	// Policy is "" to let the cost-based optimizer choose the plan
	// (with the collection's measured probe cost and cost ratios once
	// it has served enough queries, static defaults before), or
	// "plan:<brute_force|pre_filter|post_filter|single_stage>" to force
	// one. Any other value is an error.
	Policy string
	// Ef is the index beam/leaf budget (0 = index default).
	Ef int
	// NProbe is the bucket probe count for IVF/LSH-style indexes.
	NProbe int
	// Alpha is the post-filter over-fetch multiplier (default 4).
	Alpha int
	// TargetRecall, in (0,1], asks the auto-tuner to pick the cheapest
	// Ef/NProbe its measured frontier proves meets this recall for the
	// query's k (EnableAutoTune). Explicit Ef/NProbe win over it; while
	// the frontier is cold the safe default (ladder maximum) is used.
	// Zero falls back to the collection's default target, if one is
	// set (SetTargetRecall).
	TargetRecall float64
	// RerankK overrides the exact re-rank width for quantized index
	// scans (0 = index default, max(4k, 32)). Larger values trade
	// latency for recall; ignored by full-precision indexes.
	RerankK int
	// Parallelism is the intra-query worker count: exhaustive and
	// bucket scans partition their work across this many workers,
	// drawn from a shared process-wide pool. 0 uses every CPU
	// (GOMAXPROCS); 1 scans serially. Results are identical at every
	// setting — partitions merge through an id-deterministic top-k.
	Parallelism int
	// EntityColumn names an int attribute grouping rows into entities
	// for multi-vector queries.
	EntityColumn string
	// Aggregator combines multi-vector scores: "min" (default),
	// "mean", "max", or "weighted_sum" (with Weights).
	Aggregator string
	Weights    []float32
	// Trace, when true, records a span tree of the query pipeline
	// (plan, filter, index probe, ...) and returns it in
	// SearchResult.Trace. Adds a few microseconds per query.
	Trace bool
}

// TraceSpan is one timed stage of a query's execution. Children are
// sub-stages; Annotations carry integer counters (distance
// computations, nodes visited, survivors of a filter, ...).
type TraceSpan = obs.SpanReport

// SearchResult is the response to Search.
type SearchResult struct {
	Hits []Hit
	// Plan is the executed plan name ("brute_force", "pre_filter",
	// "post_filter", or "single_stage").
	Plan string
	// Ef and NProbe are the search parameters the query actually ran
	// with after knob resolution (0 = the index's built-in default was
	// used for that knob).
	Ef     int
	NProbe int
	// ParamSource says where those parameters came from: "explicit",
	// "tuned", "safe_default", "collection_default", or
	// "index_default".
	ParamSource string
	// Trace is the span tree of this query, present only when
	// SearchRequest.Trace was set.
	Trace *TraceSpan `json:"Trace,omitempty"`
}

// Search executes a k-NN, hybrid, or multi-vector query.
func (c *Collection) Search(req SearchRequest) (SearchResult, error) {
	return c.SearchContext(context.Background(), req)
}

// SearchContext executes Search under ctx, on the caller's goroutine. A
// query whose context is cancelled or past its deadline stops: the
// exhaustive scan and the allowlist build check ctx once per block, the
// graph indexes (hnsw, nsw, nsg, knng) once per expanded node, the IVF
// family once per inverted list, and every other family before its
// probe starts. The search then returns ctx's error — no work continues
// in the background — and the truncated probe is kept out of the
// collection's statistics, the recall auditor and the tuner. An
// uncancellable ctx (context.Background) costs one nil check per
// block.
func (c *Collection) SearchContext(ctx context.Context, req SearchRequest) (SearchResult, error) {
	if err := ctx.Err(); err != nil {
		return SearchResult{}, err
	}
	preds, err := c.convertFilters(req.Filters)
	if err != nil {
		return SearchResult{}, err
	}
	agg := vec.AggMin
	if req.Aggregator != "" {
		agg, err = vec.ParseAggregator(req.Aggregator)
		if err != nil {
			return SearchResult{}, err
		}
	}
	var tr *obs.Trace
	if req.Trace {
		tr = obs.NewTrace("search")
	}
	res, dec, err := c.inner.Search(core.Request{
		Vector:       req.Vector,
		Vectors:      req.Vectors,
		K:            req.K,
		Preds:        preds,
		Policy:       req.Policy,
		Ef:           req.Ef,
		NProbe:       req.NProbe,
		TargetRecall: req.TargetRecall,
		Alpha:        req.Alpha,
		RerankK:      req.RerankK,
		Parallelism:  req.Parallelism,
		EntityColumn: req.EntityColumn,
		Aggregator:   agg,
		Weights:      req.Weights,
		Trace:        tr,
		Ctx:          ctx,
	})
	if err != nil {
		return SearchResult{}, err
	}
	if res == nil {
		res = []Hit{} // an empty answer encodes as [], not null
	}
	out := SearchResult{
		Hits:        res,
		Plan:        dec.Plan.Kind.String(),
		Ef:          dec.Ef,
		NProbe:      dec.NProbe,
		ParamSource: dec.ParamSource,
	}
	out.Trace = tr.Finish()
	return out, nil
}

// SearchRange returns every live vector within the squared-distance
// radius, optionally filtered.
func (c *Collection) SearchRange(q []float32, radius float32, filters []Filter) ([]Hit, error) {
	preds, err := c.convertFilters(filters)
	if err != nil {
		return nil, err
	}
	return c.inner.SearchRange(q, radius, preds)
}

// SearchBatch answers a batch of queries in parallel, all against one
// snapshot. req carries the shared execution knobs — K, Filters,
// Policy (including "plan:<kind>" forcing), Ef, NProbe, Alpha,
// Parallelism — and one plan is chosen and reused for the whole batch;
// the per-query fields (Vector, Vectors, EntityColumn, Trace) are
// ignored. A query that fails does not discard the rest of the batch:
// its slot is nil and the returned error wraps each failing query's
// index (errors.Join), so callers keep the successful answers — the
// same partial-results philosophy as the distributed read path.
func (c *Collection) SearchBatch(qs [][]float32, req SearchRequest) ([][]Hit, error) {
	preds, err := c.convertFilters(req.Filters)
	if err != nil {
		return nil, err
	}
	return c.inner.SearchBatch(qs, core.Request{
		K:            req.K,
		Preds:        preds,
		Policy:       req.Policy,
		Ef:           req.Ef,
		NProbe:       req.NProbe,
		TargetRecall: req.TargetRecall,
		Alpha:        req.Alpha,
		RerankK:      req.RerankK,
		Parallelism:  req.Parallelism,
	})
}

// Iterator pages through results incrementally (Section 2.6(5)).
type Iterator struct {
	inner *executor.Iterator
}

// OpenIterator starts an incremental query; call Next for pages.
func (c *Collection) OpenIterator(q []float32, filters []Filter, ef int) (*Iterator, error) {
	preds, err := c.convertFilters(filters)
	if err != nil {
		return nil, err
	}
	it, err := c.inner.OpenIterator(q, preds, ef)
	if err != nil {
		return nil, err
	}
	return &Iterator{inner: it}, nil
}

// Next returns up to n further hits; empty means exhausted.
func (it *Iterator) Next(n int) ([]Hit, error) {
	return it.inner.Next(n)
}

// ErrAttrType is wrapped by the error Insert returns when an attribute
// value cannot be stored in its column exactly: a string in a numeric
// column (or the reverse), a fractional or out-of-range number in an
// int column, an int beyond 2^53 in a float column, or no value.
var ErrAttrType = errors.New("vdbms: attribute value does not match column type")

// convertAttrs checks insert values against the schema and brings each
// to its column's own type under the lossless rule convertFilters
// applies to operands. A column the schema does not declare passes
// through untyped, for the engine to name.
func (c *Collection) convertAttrs(attrs map[string]any) (map[string]filter.Value, error) {
	if attrs == nil {
		return nil, nil
	}
	out := make(map[string]filter.Value, len(attrs))
	for name, v := range attrs {
		typ, known := c.attrs[name]
		if !known {
			out[name] = filter.Value{}
			continue
		}
		val, fractional, ok := columnValue(typ, v)
		if !ok || fractional {
			return nil, fmt.Errorf("%w: attribute %q: %s column, value %v (%T)", ErrAttrType, name, typ, v, v)
		}
		out[name] = val
	}
	return out, nil
}

// ErrFilterType is wrapped by the error a query returns when a filter's
// operand cannot be compared with its column: a string against a
// numeric column (or the reverse), a number the column's type cannot
// represent exactly, or no operand at all.
var ErrFilterType = errors.New("vdbms: filter operand does not match column type")

// convertFilters is the one place filter operands are checked against
// the schema and brought to the column's own type; a predicate leaves
// here comparable as-is or not at all (the engine's filter.Value is an
// untyped union — an operand left in the wrong field would silently
// compare as zero). Numbers convert when the conversion is lossless,
// and a fractional bound on an int column is moved to the integer
// bound with the same meaning (cat < 2.5 is cat < 3). JSON callers
// need no pre-pass: their float64 numbers bind to int columns here.
func (c *Collection) convertFilters(fs []Filter) ([]filter.Predicate, error) {
	if len(fs) == 0 {
		return nil, nil
	}
	out := make([]filter.Predicate, 0, len(fs))
	for _, f := range fs {
		op, err := parseOp(f.Op)
		if err != nil {
			return nil, err
		}
		typ, known := c.attrs[f.Column]
		if !known {
			// The engine names the unknown column; the operand is moot.
			out = append(out, filter.Predicate{Column: f.Column, Op: op})
			continue
		}
		p := filter.Predicate{Column: f.Column, Op: op}
		if op == filter.In {
			p.Set = make([]filter.Value, 0, len(f.Set))
			for _, m := range f.Set {
				// Membership is equality: a member the column cannot
				// hold exactly matches no row and drops out.
				_, v, ok, err := coerceOperand(typ, filter.Eq, m)
				if err != nil {
					return nil, fmt.Errorf("vdbms: filter on %q: %w", f.Column, err)
				}
				if ok {
					p.Set = append(p.Set, v)
				}
			}
			out = append(out, p)
			continue
		}
		var ok bool
		if p.Op, p.Value, ok, err = coerceOperand(typ, op, f.Value); err != nil {
			return nil, fmt.Errorf("vdbms: filter on %q: %w", f.Column, err)
		}
		if !ok {
			// Constant predicates: "= 2.5" on an int column matches no
			// row (an empty IN set), "!= 2.5" every row (no predicate).
			if op == filter.Ne {
				continue
			}
			p.Op, p.Value = filter.In, filter.Value{}
		}
		out = append(out, p)
	}
	return out, nil
}

// coerceOperand brings one operand to a column of type typ under
// comparison op. It returns the operator and value to evaluate, or
// ok=false when the comparison is constant (an equality against a value
// the column cannot hold). Only a fractional float against an int
// column changes the operator's bound: it moves to the neighbouring
// integer that keeps the comparison's meaning.
func coerceOperand(typ string, op filter.Op, v any) (filter.Op, filter.Value, bool, error) {
	val, fractional, ok := columnValue(typ, v)
	switch {
	case !ok:
		return op, filter.Value{}, false, fmt.Errorf("%w: %s column, operand %v (%T)", ErrFilterType, typ, v, v)
	case !fractional:
		return op, val, true, nil
	}
	switch op { // val is the floor of the fractional operand
	case filter.Lt, filter.Le: // x < 2.5, x <= 2.5: x <= 2
		return filter.Le, val, true, nil
	case filter.Gt, filter.Ge: // x > 2.5, x >= 2.5: x > 2
		return filter.Gt, val, true, nil
	default:
		return op, filter.Value{}, false, nil
	}
}

// columnValue converts v to the type of a typ column — the one
// conversion both filter operands and inserted values go through. ok is
// false when v's kind does not fit the column (a string against a
// numeric column or the reverse, an unsupported type) or its value is
// out of the column's exact range (a float beyond ±2^63 or NaN for int,
// an int beyond 2^53 for float). A fractional number against an int
// column is the one inexact case: fractional is true and val holds its
// floor, for the caller to reject or to move a bound by.
func columnValue(typ string, v any) (val filter.Value, fractional, ok bool) {
	var i int64
	var f float64
	isInt := false
	switch x := v.(type) {
	case int:
		i, isInt = int64(x), true
	case int64:
		i, isInt = x, true
	case float64:
		f = x
	case float32:
		f = float64(x)
	case string:
		return filter.StringV(x), false, typ == "string"
	default:
		return filter.Value{}, false, false
	}
	switch typ {
	case "int":
		if isInt {
			return filter.IntV(i), false, true
		}
		// ±2^63 bound the floats that convert to int64 without overflow;
		// NaN fails both compares.
		if !(f >= -(1<<63) && f < 1<<63) {
			return filter.Value{}, false, false
		}
		fl := math.Floor(f)
		return filter.IntV(int64(fl)), fl != f, true
	case "float":
		if !isInt {
			return filter.FloatV(f), false, true
		}
		if f = float64(i); f >= 1<<63 || int64(f) != i {
			return filter.Value{}, false, false // beyond 2^53: not exactly a float64
		}
		return filter.FloatV(f), false, true
	default:
		return filter.Value{}, false, false
	}
}

func parseOp(s string) (filter.Op, error) {
	switch s {
	case "=", "==":
		return filter.Eq, nil
	case "!=":
		return filter.Ne, nil
	case "<":
		return filter.Lt, nil
	case "<=":
		return filter.Le, nil
	case ">":
		return filter.Gt, nil
	case ">=":
		return filter.Ge, nil
	case "in":
		return filter.In, nil
	default:
		return 0, fmt.Errorf("vdbms: unknown operator %q", s)
	}
}

// IndexKinds lists the registered ANN index families available to
// CreateIndex.
func IndexKinds() []string {
	return []string{
		"annoy", "fanng", "flat", "hnsw", "ivfadc", "ivfflat",
		"ivfsq", "kdforest", "kdtree", "knng", "lsh", "nsg", "nsw",
		"pcatree", "pkdtree", "rptree", "spectral", "vamana",
	}
}

// Save writes the collection (schema, vectors, attributes, deletions,
// and the index recipe) to a single file, atomically. Indexes are
// rebuilt on load from their recorded family and options.
func (c *Collection) Save(path string) error { return c.inner.Save(path) }

// wrapCollection adapts a restored core collection to the public type.
func wrapCollection(inner *core.Collection) *Collection {
	types := map[string]string{}
	for name, kind := range inner.AttributeKinds() {
		switch kind {
		case filter.Int64:
			types[name] = "int"
		case filter.Float64:
			types[name] = "float"
		default:
			types[name] = "string"
		}
	}
	return &Collection{inner: inner, dim: inner.Dim(), attrs: types}
}

// RestoreCollection loads a collection previously written by
// Collection.Save and registers it under its saved name.
func (db *DB) RestoreCollection(path string) (*Collection, error) {
	inner, err := core.Load(path)
	if err != nil {
		return nil, err
	}
	col := wrapCollection(inner)
	db.mu.Lock()
	if _, dup := db.collections[col.Name()]; dup {
		db.mu.Unlock()
		return nil, fmt.Errorf("vdbms: collection %q already exists", col.Name())
	}
	db.collections[col.Name()] = col
	audit, tune := db.audit, db.tune
	db.mu.Unlock()
	if audit != nil {
		col.EnableRecallAudit(*audit)
	}
	if tune != nil {
		col.EnableAutoTune(*tune)
	}
	return col, nil
}
