package core

import (
	"errors"
	"fmt"
	"math"

	"vdbms/internal/filter"
	"vdbms/internal/obs"
)

// The search request, its filters and its result are declared once,
// here, next to the schema they are checked against. The same values
// travel from the HTTP body (the JSON tags below are the wire format)
// through the vdbms API and the shard RPC (gob) to the engine; the
// public package re-exports them as aliases.

// Filter is one predicate of a hybrid query. Op is one of
// "=", "!=", "<", "<=", ">", ">=", "in". Value holds an int, float64,
// or string matching the column type ("in" takes a []any).
type Filter struct {
	Column string
	Op     string
	Value  any
	Set    []any
}

// SearchRequest describes a vector query.
type SearchRequest struct {
	// Vector is the query vector for single-vector queries.
	Vector []float32 `json:"vector"`
	// Vectors holds multiple query vectors for multi-vector queries;
	// requires EntityColumn.
	Vectors [][]float32 `json:"vectors,omitempty"`
	// K is the number of results (required).
	K int `json:"k"`
	// Filters are conjunctive attribute predicates (hybrid query).
	Filters []Filter `json:"filters,omitempty"`
	// Policy is "" to let the cost-based optimizer choose the plan
	// (with the collection's measured probe cost and cost ratios once
	// it has served enough queries, static defaults before), or
	// "plan:<brute_force|pre_filter|post_filter|single_stage>" to force
	// one (planner.ParsePolicy). Any other value is an error.
	Policy string `json:"policy,omitempty"`
	// Ef is the index beam/leaf budget (0 = index default).
	Ef int `json:"ef,omitempty"`
	// NProbe is the bucket probe count for IVF/LSH-style indexes.
	NProbe int `json:"nprobe,omitempty"`
	// TargetRecall, in (0,1], asks the recall loop (EnableRecall) to
	// pick the cheapest Ef/NProbe its measured frontier proves meets
	// this recall for the query's k. Explicit Ef/NProbe win over it;
	// while the frontier is cold the safe default (ladder maximum) is
	// used.
	// Zero falls back to the collection's default target, if one is
	// set (SetTargetRecall).
	TargetRecall float64 `json:"target_recall,omitempty"`
	// Alpha is the post-filter over-fetch multiplier (default 4).
	Alpha int `json:"alpha,omitempty"`
	// RerankK overrides the exact re-rank width for quantized index
	// scans (0 = index default, max(4k, 32)). Larger values trade
	// latency for recall; ignored by full-precision indexes.
	RerankK int `json:"rerank_k,omitempty"`
	// EntityColumn names an int attribute grouping rows into entities
	// for multi-vector queries.
	EntityColumn string `json:"entity_column,omitempty"`
	// Aggregator combines multi-vector scores: "min" (default),
	// "mean", "max", or "weighted_sum", which takes exactly one of
	// Weights per query vector.
	Aggregator string    `json:"aggregator,omitempty"`
	Weights    []float32 `json:"weights,omitempty"`
	// Radius, when positive, makes the query a range query (Section
	// 2.1): the K nearest rows within it, by plan:brute_force; 0 is none.
	Radius float32 `json:"radius,omitempty"`
	// After, the previous page's last hit, pages the query (Section
	// 2.6(5)): the next K hits strictly after it in (Dist, ID) order.
	// Nothing is kept between pages.
	After *Result `json:"after,omitempty"`
	// Trace, when true, records a span tree of the query pipeline
	// (plan, filter, index probe, ...) and returns it in
	// SearchResult.Trace. Adds a few microseconds per query. HTTP
	// clients ask for it with a header, not in the body.
	Trace bool `json:"-"`
}

// SearchResult is the response to Search.
type SearchResult struct {
	Hits []Result
	// Plan is the executed plan name ("brute_force", "pre_filter",
	// "post_filter", or "single_stage").
	Plan string
	// Ef and NProbe are the search parameters the query actually ran
	// with after knob resolution (0 = the index's built-in default was
	// used for that knob).
	Ef     int
	NProbe int
	// ParamSource says where those parameters came from: "explicit",
	// "tuned", "safe_default", or "index_default".
	ParamSource string
	// Trace is the span tree of this query, present only when
	// SearchRequest.Trace was set.
	Trace *obs.SpanReport `json:"Trace,omitempty"`
}

// ErrWindow is wrapped by the error a query returns when its Radius or
// After cannot be served: a negative, NaN or infinite radius, a cursor
// with a NaN distance or a negative id, a radius under a forced plan
// other than brute_force, either one on a multi-vector query or a batch.
var ErrWindow = errors.New("vdbms: invalid radius or page cursor")

// checkWindow refuses a Radius or After no single-vector query serves.
func checkWindow(req *SearchRequest) error {
	if req.Radius == 0 && req.After == nil {
		return nil
	}
	r, a := float64(req.Radius), req.After
	switch {
	case r < 0 || math.IsNaN(r) || math.IsInf(r, 0):
		return fmt.Errorf("%w: radius %v", ErrWindow, req.Radius)
	case a != nil && (math.IsNaN(float64(a.Dist)) || a.ID < 0):
		return fmt.Errorf("%w: after %+v", ErrWindow, *a)
	case len(req.Vectors) > 0:
		return fmt.Errorf("%w: a multi-vector query takes neither", ErrWindow)
	}
	return nil
}

// ErrAttrType is wrapped by the error an insert returns when an
// attribute value cannot be stored in its column exactly: a string in a
// numeric column (or the reverse), a fractional or out-of-range number
// in an int column, an int beyond 2^53 in a float column, or no value.
var ErrAttrType = errors.New("vdbms: attribute value does not match column type")

// InsertAttrs is Insert for attribute values as callers outside the
// engine hold them (int, float64, string, ...). Values are checked
// against the column types the way filter operands are: a number
// converts when that is lossless (7.0 stores 7 in an int column), and
// anything else — 2.5 or "seven" on an int column — fails with an
// error wrapping ErrAttrType.
func (c *Collection) InsertAttrs(v []float32, attrs map[string]any) (int64, error) {
	converted, err := c.convertAttrs(attrs)
	if err != nil {
		return 0, err
	}
	return c.Insert(v, converted)
}

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
		kind, known := c.schema.Attributes[name]
		if !known {
			out[name] = filter.Value{}
			continue
		}
		val, fractional, ok := columnValue(kind, v)
		if !ok || fractional {
			return nil, fmt.Errorf("%w: attribute %q: %s column, value %v (%T)", ErrAttrType, name, kind, v, v)
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
		kind, known := c.schema.Attributes[f.Column]
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
				_, v, ok, err := coerceOperand(kind, filter.Eq, m)
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
		if p.Op, p.Value, ok, err = coerceOperand(kind, op, f.Value); err != nil {
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

// coerceOperand brings one operand to a column of kind kind under
// comparison op. It returns the operator and value to evaluate, or
// ok=false when the comparison is constant (an equality against a value
// the column cannot hold). Only a fractional float against an int
// column changes the operator's bound: it moves to the neighbouring
// integer that keeps the comparison's meaning.
func coerceOperand(kind filter.Kind, op filter.Op, v any) (filter.Op, filter.Value, bool, error) {
	val, fractional, ok := columnValue(kind, v)
	switch {
	case !ok:
		return op, filter.Value{}, false, fmt.Errorf("%w: %s column, operand %v (%T)", ErrFilterType, kind, v, v)
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

// columnValue converts v to the type of a kind column — the one
// conversion both filter operands and inserted values go through. ok is
// false when v's kind does not fit the column (a string against a
// numeric column or the reverse, an unsupported type) or its value is
// out of the column's exact range (a float beyond ±2^63 or NaN for int,
// an int beyond 2^53 for float). A fractional number against an int
// column is the one inexact case: fractional is true and val holds its
// floor, for the caller to reject or to move a bound by.
func columnValue(kind filter.Kind, v any) (val filter.Value, fractional, ok bool) {
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
		return filter.StringV(x), false, kind == filter.String
	default:
		return filter.Value{}, false, false
	}
	switch kind {
	case filter.Int64:
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
	case filter.Float64:
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
