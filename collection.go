package vdbms

import (
	"context"
	"fmt"

	"vdbms/internal/core"
	"vdbms/internal/filter"
	"vdbms/internal/index"
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
}

// parseSchema converts the public schema into the core one.
func parseSchema(s Schema) (core.Schema, error) {
	metric := s.Metric
	if metric == "" {
		metric = "l2"
	}
	m, err := vec.ParseMetric(metric)
	if err != nil {
		return core.Schema{}, err
	}
	attrs := map[string]filter.Kind{}
	for col, typ := range s.Attributes {
		kind, ok := filter.ParseKind(typ)
		if !ok {
			return core.Schema{}, fmt.Errorf("vdbms: column %q has unknown type %q (want int/float/string)", col, typ)
		}
		attrs[col] = kind
	}
	return core.Schema{
		Dim:             s.Dim,
		Metric:          m,
		Attributes:      attrs,
		RebuildFraction: s.RebuildFraction,
		Quantization:    s.Quantization,
		RerankK:         s.RerankK,
	}, nil
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.inner.Name() }

// Dim returns the vector dimensionality.
func (c *Collection) Dim() int { return c.inner.Dim() }

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
	return c.inner.InsertAttrs(vector, attrs)
}

// UpdateVector replaces the vector stored at id.
func (c *Collection) UpdateVector(id int64, vector []float32) error {
	return c.inner.UpdateVector(id, vector)
}

// Delete removes id from all future query results.
func (c *Collection) Delete(id int64) error { return c.inner.Delete(id) }

// Compact drops deleted rows from memory, scans and checkpoints; every
// id keeps naming its vector. The index is rebuilt in the background.
func (c *Collection) Compact() error { return c.inner.Compact() }

// Get returns the vector and attributes stored at id.
func (c *Collection) Get(id int64) ([]float32, map[string]any, error) {
	v, vals, err := c.inner.Get(id)
	if err != nil {
		return nil, nil, err
	}
	kinds := c.inner.AttributeKinds()
	out := make(map[string]any, len(vals))
	for name, val := range vals {
		out[name] = val.Any(kinds[name])
	}
	return v, out, nil
}

// AttributeTypes returns the declared attribute columns and their
// types ("int", "float", "string").
func (c *Collection) AttributeTypes() map[string]string {
	kinds := c.inner.AttributeKinds()
	out := make(map[string]string, len(kinds))
	for name, kind := range kinds {
		out[name] = kind.String()
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
// are served through the index — the rows its build covers, plus the
// inserts an ivfflat index filed since — and how many in-place
// mutations (updates and deletes) have accrued since the build.
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
type Filter = core.Filter

// Hit is one search result: the engine's own top-k entry, {ID, Dist},
// handed up without a copy.
type Hit = topk.Result

// SearchRequest describes a vector query. It is the engine's own
// request type, and its JSON form is the body of the HTTP search and
// batch routes.
type SearchRequest = core.SearchRequest

// TraceSpan is one timed stage of a query's execution. Children are
// sub-stages; Annotations carry integer counters (distance
// computations, nodes visited, survivors of a filter, ...).
type TraceSpan = obs.SpanReport

// SearchResult is the response to Search.
type SearchResult = core.SearchResult

// ErrAttrType is wrapped by the error Insert returns when an attribute
// value cannot be stored in its column exactly: a string in a numeric
// column (or the reverse), a fractional or out-of-range number in an
// int column, an int beyond 2^53 in a float column, or no value.
var ErrAttrType = core.ErrAttrType

// ErrWindow is wrapped by the error a query returns when its Radius or
// After cannot be served: a negative, NaN or infinite radius, a cursor
// with a NaN distance or a negative id, a radius under a forced plan
// other than brute_force, or either one on a multi-vector query or a
// batch.
var ErrWindow = core.ErrWindow

// ErrFilterType is wrapped by the error a query returns when a filter's
// operand cannot be compared with its column: a string against a
// numeric column (or the reverse), a number the column's type cannot
// represent exactly, or no operand at all.
var ErrFilterType = core.ErrFilterType

// Search executes a k-NN, hybrid, range (Radius) or multi-vector query,
// or the next page of one past a cursor (After).
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
	return c.inner.Search(ctx, req)
}

// SearchBatch answers a batch of queries in parallel, all against one
// snapshot. req carries the shared execution knobs — K, Filters,
// Policy (including "plan:<kind>" forcing), Ef, NProbe and Alpha —
// and one plan is chosen and reused for the whole batch;
// the per-query fields (Vector, Vectors, EntityColumn, Trace) are
// ignored. A query that fails does not discard the rest of the batch:
// its slot is nil and the returned error wraps each failing query's
// index (errors.Join), so callers keep the successful answers — the
// same partial-results philosophy as the distributed read path.
func (c *Collection) SearchBatch(qs [][]float32, req SearchRequest) ([][]Hit, error) {
	return c.SearchBatchContext(context.Background(), qs, req)
}

// SearchBatchContext executes SearchBatch under ctx, as SearchContext
// does Search: once ctx is done, every query still running stops and
// fails with ctx's error.
func (c *Collection) SearchBatchContext(ctx context.Context, qs [][]float32, req SearchRequest) ([][]Hit, error) {
	return c.inner.SearchBatch(ctx, qs, req)
}

// IndexKinds lists the registered ANN index families available to
// CreateIndex.
func IndexKinds() []string { return index.Names() }

// Save writes the collection (schema, vectors, attributes, deletions,
// and the index recipe) to a single file, atomically. Indexes are
// rebuilt on load from their recorded family and options.
func (c *Collection) Save(path string) error { return c.inner.Save(path) }

// RestoreCollection loads a collection previously written by
// Collection.Save and registers it under its saved name.
func (db *DB) RestoreCollection(path string) (*Collection, error) {
	inner, err := core.Load(path)
	if err != nil {
		return nil, err
	}
	col := &Collection{inner: inner}
	db.mu.Lock()
	if _, dup := db.collections[col.Name()]; dup {
		db.mu.Unlock()
		return nil, fmt.Errorf("vdbms: collection %q already exists", col.Name())
	}
	db.collections[col.Name()] = col
	recall := db.recall
	db.mu.Unlock()
	if recall != nil {
		col.EnableRecall(*recall)
	}
	return col, nil
}
