// Package filter implements the attribute side of hybrid queries
// (Sections 2.1(3) and 2.3): typed attribute columns over row ids,
// boolean predicates, selectivity estimation for the planner, and
// bitmap construction for block-first scans.
package filter

import (
	"fmt"
	"sort"
	"sync"

	"vdbms/internal/bitset"
)

// Kind is an attribute column type.
type Kind int

const (
	// Int64 is a 64-bit integer attribute.
	Int64 Kind = iota
	// Float64 is a floating attribute.
	Float64
	// String is a string attribute.
	String
)

// kindNames is the one table between column kinds and the names a
// schema spells them with.
var kindNames = [...]string{Int64: "int", Float64: "float", String: "string"}

// String returns the kind's schema name: "int", "float" or "string".
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind returns the kind a schema name stands for.
func ParseKind(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Value is a dynamically typed attribute value. Exactly one field is
// meaningful per column Kind.
type Value struct {
	I int64
	F float64
	S string
}

// IntV, FloatV, StringV are Value constructors.
func IntV(i int64) Value     { return Value{I: i} }
func FloatV(f float64) Value { return Value{F: f} }
func StringV(s string) Value { return Value{S: s} }

// Any returns v as a column of kind k holds it: an int64, a float64 or
// a string.
func (v Value) Any(k Kind) any {
	switch k {
	case Int64:
		return v.I
	case Float64:
		return v.F
	default:
		return v.S
	}
}

// Column is an append-only typed attribute column aligned with vector
// row ids.
type Column struct {
	mu   sync.RWMutex
	name string
	kind Kind
	ints []int64
	flts []float64
	strs []string
}

// NewColumn creates an empty column.
func NewColumn(name string, kind Kind) *Column {
	return &Column{name: name, kind: kind}
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Kind returns the column type.
func (c *Column) Kind() Kind { return c.kind }

// Len returns the number of rows.
func (c *Column) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lenLocked()
}

func (c *Column) lenLocked() int {
	switch c.kind {
	case Int64:
		return len(c.ints)
	case Float64:
		return len(c.flts)
	default:
		return len(c.strs)
	}
}

// Append adds a value; row id is implicit (== previous Len).
func (c *Column) Append(v Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.kind {
	case Int64:
		c.ints = append(c.ints, v.I)
	case Float64:
		c.flts = append(c.flts, v.F)
	case String:
		c.strs = append(c.strs, v.S)
	}
}

// Int64s returns a copy of the first n values of an Int64 column —
// the bulk read used by snapshot serialization, one lock acquisition
// instead of one per row.
func (c *Column) Int64s(n int) []int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]int64(nil), c.ints[:n]...)
}

// Float64s returns a copy of the first n values of a Float64 column.
func (c *Column) Float64s(n int) []float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]float64(nil), c.flts[:n]...)
}

// Strings returns a copy of the first n values of a String column.
func (c *Column) Strings(n int) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.strs[:n]...)
}

// restore replaces the column's data wholesale (bulk restore of an
// empty table; the caller has validated kind and length).
func (c *Column) restore(ints []int64, flts []float64, strs []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ints, c.flts, c.strs = ints, flts, strs
}

// Get returns the value at row id.
func (c *Column) Get(id int) Value {
	c.mu.RLock()
	defer c.mu.RUnlock()
	switch c.kind {
	case Int64:
		return Value{I: c.ints[id]}
	case Float64:
		return Value{F: c.flts[id]}
	default:
		return Value{S: c.strs[id]}
	}
}

// Op is a comparison operator.
type Op int

const (
	// Eq matches values equal to the operand.
	Eq Op = iota
	// Ne matches values not equal to the operand.
	Ne
	// Lt matches values less than the operand.
	Lt
	// Le matches values less than or equal to the operand.
	Le
	// Gt matches values greater than the operand.
	Gt
	// Ge matches values greater than or equal to the operand.
	Ge
	// In matches values contained in the operand set.
	In
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case In:
		return "in"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Predicate is a condition over one column, optionally conjoined with
// more predicates by the caller.
type Predicate struct {
	Column string
	Op     Op
	Value  Value
	Set    []Value // for In
}

// Table is a named set of aligned columns supporting predicate
// evaluation and bitmap construction.
type Table struct {
	mu   sync.RWMutex
	cols map[string]*Column
	n    int
}

// NewTable creates an empty attribute table.
func NewTable() *Table { return &Table{cols: map[string]*Column{}} }

// AddColumn registers a column; it must be added before any rows.
func (t *Table) AddColumn(name string, kind Kind) (*Column, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n > 0 {
		return nil, fmt.Errorf("filter: cannot add column %q after rows exist", name)
	}
	if _, dup := t.cols[name]; dup {
		return nil, fmt.Errorf("filter: duplicate column %q", name)
	}
	c := NewColumn(name, kind)
	t.cols[name] = c
	return c, nil
}

// Column retrieves a column by name.
func (t *Table) Column(name string) (*Column, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, ok := t.cols[name]
	return c, ok
}

// Columns returns the column names sorted.
func (t *Table) Columns() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.cols))
	for n := range t.cols {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

// View returns a snapshot of the table pinned at n rows. The view
// shares the underlying columns (values are append-only, so the first
// n rows are immutable) but reports Len() == n, so bitmaps,
// selectivity samples, and scans sized off the view never observe rows
// appended after the snapshot was taken. Appending to a view is not
// supported; keep writing through the original table.
func (t *Table) View(n int) *Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if n > t.n {
		n = t.n
	}
	return &Table{cols: t.cols, n: n}
}

// AppendRow adds one value per column; missing columns are an error.
func (t *Table) AppendRow(vals map[string]Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.validateRowLocked(vals); err != nil {
		return err
	}
	for name, c := range t.cols {
		c.Append(vals[name])
	}
	t.n++
	return nil
}

// ValidateRow checks that vals covers exactly the table's columns
// without appending anything — write paths that must log a row before
// applying it (the WAL) use this to guarantee the logged record is
// always applicable on replay.
func (t *Table) ValidateRow(vals map[string]Value) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.validateRowLocked(vals)
}

func (t *Table) validateRowLocked(vals map[string]Value) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("filter: row has %d values, table has %d columns", len(vals), len(t.cols))
	}
	for name := range vals {
		if _, ok := t.cols[name]; !ok {
			return fmt.Errorf("filter: unknown column %q", name)
		}
	}
	return nil
}

// BulkRestore fills an empty table column-wise with n rows: each
// registered column must appear in exactly the map matching its kind,
// with exactly n values. It is the bulk path snapshot loading uses
// instead of n AppendRow calls (one map build and one lock pass per
// row); lengths are validated once up front so every table invariant
// (aligned columns, row count) holds by construction afterwards.
func (t *Table) BulkRestore(n int, ints map[string][]int64, flts map[string][]float64, strs map[string][]string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n > 0 {
		return fmt.Errorf("filter: BulkRestore into a table with %d rows", t.n)
	}
	for name, c := range t.cols {
		switch c.Kind() {
		case Int64:
			if vals, ok := ints[name]; !ok || len(vals) != n {
				return fmt.Errorf("filter: column %q needs %d int64 values, have %d", name, n, len(ints[name]))
			}
		case Float64:
			if vals, ok := flts[name]; !ok || len(vals) != n {
				return fmt.Errorf("filter: column %q needs %d float64 values, have %d", name, n, len(flts[name]))
			}
		case String:
			if vals, ok := strs[name]; !ok || len(vals) != n {
				return fmt.Errorf("filter: column %q needs %d string values, have %d", name, n, len(strs[name]))
			}
		}
	}
	for name, c := range t.cols {
		switch c.Kind() {
		case Int64:
			c.restore(ints[name], nil, nil)
		case Float64:
			c.restore(nil, flts[name], nil)
		case String:
			c.restore(nil, nil, strs[name])
		}
	}
	t.n = n
	return nil
}

// Gather returns a new table holding rows of t, in the order listed —
// the attribute half of a compaction. t is left as it is, so views of
// it stay valid.
func (t *Table) Gather(rows []int) *Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := &Table{cols: make(map[string]*Column, len(t.cols)), n: len(rows)}
	for name, c := range t.cols {
		nc := NewColumn(name, c.kind)
		c.mu.RLock()
		nc.ints, nc.flts, nc.strs = gather(c.ints, rows), gather(c.flts, rows), gather(c.strs, rows)
		c.mu.RUnlock()
		out.cols[name] = nc
	}
	return out
}

// gather returns vals[rows[0]], vals[rows[1]], ...; nil for a column
// of another kind.
func gather[T any](vals []T, rows []int) []T {
	if vals == nil {
		return nil
	}
	out := make([]T, len(rows))
	for i, r := range rows {
		out[i] = vals[r]
	}
	return out
}

// Matches evaluates a conjunction of predicates against a row. It is a
// convenience wrapper that compiles on every call; anything evaluating
// more than a handful of rows should Compile once and use the result.
func (t *Table) Matches(preds []Predicate, id int) (bool, error) {
	c, err := t.Compile(preds)
	if err != nil {
		return false, err
	}
	return c.Match(int64(id)), nil
}

// Bitmap builds the allowlist bitmap of a predicate conjunction over
// all current rows — the offline step of block-first scan.
func (t *Table) Bitmap(preds []Predicate) (*bitset.Bitset, error) {
	c, err := t.Compile(preds)
	if err != nil {
		return nil, err
	}
	return c.Bitmap(), nil
}

// FilterFunc adapts a predicate conjunction to the visit-first
// index.Params.Filter signature, compiled over the rows present now
// (later appends do not match). Compile errors surface as a filter
// that matches nothing; call Compile to see them.
func (t *Table) FilterFunc(preds []Predicate) func(id int64) bool {
	c, err := t.Compile(preds)
	if err != nil {
		return func(int64) bool { return false }
	}
	return c.Matcher()
}

// EstimateSelectivity compiles preds and returns the matching fraction
// of up to sampleSize sampled rows (see Compiled.EstimateSelectivity).
func (t *Table) EstimateSelectivity(preds []Predicate, sampleSize int) (float64, error) {
	c, err := t.Compile(preds)
	if err != nil {
		return 0, err
	}
	return c.EstimateSelectivity(sampleSize), nil
}
