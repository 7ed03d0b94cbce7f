package filter

import (
	"fmt"
	"sort"

	"vdbms/internal/bitset"
)

// Compiled is a predicate conjunction bound to a table: every column is
// resolved once and its first Rows() values are captured as a slice
// header, so evaluation takes no lock, looks nothing up and cannot fail.
// Columns are append-only, which makes the captured prefix immutable —
// a Compiled stays valid (and keeps answering for exactly the rows it
// was compiled over) while writers append and even reallocate the
// column. It is safe for concurrent use and allocation-free after
// Compile.
type Compiled struct {
	n     int
	terms []term
	one   [1]term // backing store for the common single-predicate case
	// match is the per-id form: the single predicate's specialised
	// closure itself, or the conjunction over them.
	match func(id int64) bool
}

// term is one predicate specialised to its column's kind: exactly one
// of the typed column/operand/set triples is populated.
type term struct {
	kind Kind
	op   Op
	ints []int64
	flts []float64
	strs []string
	iv   int64
	fv   float64
	sv   string
	// In operands, sorted and de-duplicated (floats without NaN, which
	// equals nothing).
	iset []int64
	fset []float64
	sset []string
	// match is the per-id matcher specialised to kind x op.
	match func(id int64) bool
}

// Compile binds preds to the table's current rows (for a View, the rows
// it is pinned at). Unknown columns and operators are the only errors;
// they are reported here so the evaluators need no error path.
func (t *Table) Compile(preds []Predicate) (*Compiled, error) {
	c := &Compiled{}
	if len(preds) <= len(c.one) {
		c.terms = c.one[:len(preds)]
	} else {
		c.terms = make([]term, len(preds))
	}
	t.mu.RLock()
	c.n = t.n
	for i, p := range preds {
		col, ok := t.cols[p.Column]
		if !ok {
			t.mu.RUnlock()
			return nil, fmt.Errorf("filter: unknown column %q", p.Column)
		}
		if p.Op < Eq || p.Op > In {
			t.mu.RUnlock()
			return nil, fmt.Errorf("filter: unknown op %v", p.Op)
		}
		c.terms[i] = col.bind(p, c.n)
	}
	t.mu.RUnlock()
	switch terms, n := c.terms, c.n; len(terms) {
	case 0:
		c.match = func(id int64) bool { return uint64(id) < uint64(n) }
	case 1:
		c.match = terms[0].match
	default:
		c.match = func(id int64) bool {
			for i := range terms {
				if !terms[i].match(id) {
					return false
				}
			}
			return true
		}
	}
	return c, nil
}

// bind captures the column's first n values and the predicate's
// operand in the column's own type.
func (c *Column) bind(p Predicate, n int) term {
	c.mu.RLock()
	ints, flts, strs := c.ints, c.flts, c.strs
	c.mu.RUnlock()
	tm := term{kind: c.kind, op: p.Op}
	switch c.kind {
	case Int64:
		tm.ints, tm.iv = ints[:n], p.Value.I
		if p.Op == In {
			tm.iset = sortedSet(p.Set, func(v Value) (int64, bool) { return v.I, true })
		}
		tm.match = matcher(tm.ints, p.Op, tm.iv, tm.iset)
	case Float64:
		tm.flts, tm.fv = flts[:n], p.Value.F
		if p.Op == In {
			tm.fset = sortedSet(p.Set, func(v Value) (float64, bool) { return v.F, v.F == v.F })
		}
		tm.match = matcher(tm.flts, p.Op, tm.fv, tm.fset)
	default:
		tm.strs, tm.sv = strs[:n], p.Value.S
		if p.Op == In {
			tm.sset = sortedSet(p.Set, func(v Value) (string, bool) { return v.S, true })
		}
		tm.match = matcher(tm.strs, p.Op, tm.sv, tm.sset)
	}
	return tm
}

func sortedSet[T int64 | float64 | string](set []Value, get func(Value) (T, bool)) []T {
	out := make([]T, 0, len(set))
	for _, v := range set {
		if x, ok := get(v); ok {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	uniq := out[:0]
	for i, x := range out {
		if i == 0 || x != out[i-1] {
			uniq = append(uniq, x)
		}
	}
	return uniq
}

// Rows is the number of rows the predicate was compiled over.
func (c *Compiled) Rows() int { return c.n }

// Match evaluates the conjunction on one row — the visit-first form
// index traversals call per visited node. Ids outside [0, Rows()) do
// not match.
func (c *Compiled) Match(id int64) bool { return c.match(id) }

// Matcher returns Match as a plain func value (the shape of
// index.Params.Filter) without a method-value hop in front of it.
func (c *Compiled) Matcher() func(id int64) bool { return c.match }

// matcher specialises one predicate to its column's type and operator:
// the returned closure is a bounds check and one typed compare on the
// captured slice.
func matcher[T int64 | float64 | string](col []T, op Op, want T, set []T) func(id int64) bool {
	switch op {
	case Eq:
		return func(id int64) bool { return uint64(id) < uint64(len(col)) && col[id] == want }
	case Ne:
		return func(id int64) bool { return uint64(id) < uint64(len(col)) && col[id] != want }
	case Lt:
		return func(id int64) bool { return uint64(id) < uint64(len(col)) && col[id] < want }
	case Le:
		return func(id int64) bool { return uint64(id) < uint64(len(col)) && col[id] <= want }
	case Gt:
		return func(id int64) bool { return uint64(id) < uint64(len(col)) && col[id] > want }
	case Ge:
		return func(id int64) bool { return uint64(id) < uint64(len(col)) && col[id] >= want }
	default:
		return func(id int64) bool { return uint64(id) < uint64(len(col)) && contains(set, col[id]) }
	}
}

// contains reports whether v is in the sorted set: a scan while the
// set fits a cache line or two, a binary search beyond that.
func contains[T int64 | float64 | string](set []T, v T) bool {
	if len(set) <= 8 {
		for _, s := range set {
			if s == v {
				return true
			}
		}
		return false
	}
	lo, hi := 0, len(set)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if set[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(set) && set[lo] == v
}

// EvalRange writes the match bits of rows [lo, hi) into b — the
// block-first form: each predicate is one typed pass over its column
// producing 64 bits per stored word, later predicates AND into the
// first one's words. Bits outside [lo, hi) are left as they are, so
// disjoint ranges may be filled independently. hi is clipped to
// Rows(); b must span at least that many bits.
func (c *Compiled) EvalRange(b *bitset.Bitset, lo, hi int) {
	if hi > c.n {
		hi = c.n
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return
	}
	words := b.Words()
	if len(c.terms) == 0 { // the empty conjunction admits every row
		for a := lo; a < hi; {
			b := min((a>>6+1)<<6, hi)
			storeBits(words, a, b, ^uint64(0), false)
			a = b
		}
		return
	}
	for i := range c.terms {
		t := &c.terms[i]
		and := i > 0
		switch t.kind {
		case Int64:
			evalColumn(words, t.ints, t.op, t.iv, t.iset, lo, hi, and)
		case Float64:
			evalColumn(words, t.flts, t.op, t.fv, t.fset, lo, hi, and)
		default:
			evalColumn(words, t.strs, t.op, t.sv, t.sset, lo, hi, and)
		}
	}
}

// evalColumn is the column-at-a-time evaluator of one predicate. For
// every stored word overlapping [lo, hi) it computes the match bits of
// the overlap [a, b) — one compare and one shift per row over at most
// 64 contiguous values, written so the compiler emits a flag-set, not
// a branch (a mispredicted branch per row at 50 % selectivity would
// cost more than the compare) — and stores them with storeBits. The
// operator switch runs once per word, not per row.
func evalColumn[T int64 | float64 | string](words []uint64, col []T, op Op, want T, set []T, lo, hi int, and bool) {
	for a := lo; a < hi; {
		b := min((a>>6+1)<<6, hi)
		var w uint64
		vals := col[a:b]
		switch op {
		case Eq:
			w = eqBits(vals, want)
		case Ne:
			w = ^eqBits(vals, want)
		case Lt:
			w = ltBits(vals, want)
		case Le:
			w = leBits(vals, want)
		case Gt:
			w = gtBits(vals, want)
		case Ge:
			w = geBits(vals, want)
		default:
			w = inBits(vals, set)
		}
		storeBits(words, a, b, w, and)
		a = b
	}
}

// storeBits stores the match bits w (bit 0 = row a) of rows [a, b),
// which lie in one word, under that range's mask: replacing the word's
// bits there or, with and set, intersecting with them.
func storeBits(words []uint64, a, b int, w uint64, and bool) {
	shift := uint(a & 63)
	mask := (^uint64(0) >> uint(64-(b-a))) << shift
	w = w << shift & mask
	if and {
		words[a>>6] &= w | ^mask
	} else {
		words[a>>6] = words[a>>6]&^mask | w
	}
}

// The xxBits kernels return, for up to 64 values, bit j = vals[j] op
// want. They walk the values from last to first so every step is a
// constant one-bit shift of the accumulator (a per-row variable shift
// costs three times as much). Ne is the complement of Eq (evalColumn masks the bits past
// len(vals)); the ordered operators are not complements of each other
// because every ordered compare against NaN is false.

func eqBits[T int64 | float64 | string](vals []T, want T) (w uint64) {
	if len(vals) == 64 {
		var w0, w1, w2, w3 uint64
		for j := 15; j >= 0; j-- {
			var m0, m1, m2, m3 uint64
			if vals[j] == want {
				m0 = 1
			}
			if vals[j+16] == want {
				m1 = 1
			}
			if vals[j+32] == want {
				m2 = 1
			}
			if vals[j+48] == want {
				m3 = 1
			}
			w0, w1, w2, w3 = w0<<1|m0, w1<<1|m1, w2<<1|m2, w3<<1|m3
		}
		return w0 | w1<<16 | w2<<32 | w3<<48
	}
	for j := len(vals) - 1; j >= 0; j-- {
		var m uint64
		if vals[j] == want {
			m = 1
		}
		w = w<<1 | m
	}
	return w
}

func ltBits[T int64 | float64 | string](vals []T, want T) (w uint64) {
	if len(vals) == 64 {
		var w0, w1, w2, w3 uint64
		for j := 15; j >= 0; j-- {
			var m0, m1, m2, m3 uint64
			if vals[j] < want {
				m0 = 1
			}
			if vals[j+16] < want {
				m1 = 1
			}
			if vals[j+32] < want {
				m2 = 1
			}
			if vals[j+48] < want {
				m3 = 1
			}
			w0, w1, w2, w3 = w0<<1|m0, w1<<1|m1, w2<<1|m2, w3<<1|m3
		}
		return w0 | w1<<16 | w2<<32 | w3<<48
	}
	for j := len(vals) - 1; j >= 0; j-- {
		var m uint64
		if vals[j] < want {
			m = 1
		}
		w = w<<1 | m
	}
	return w
}

func leBits[T int64 | float64 | string](vals []T, want T) (w uint64) {
	if len(vals) == 64 {
		var w0, w1, w2, w3 uint64
		for j := 15; j >= 0; j-- {
			var m0, m1, m2, m3 uint64
			if vals[j] <= want {
				m0 = 1
			}
			if vals[j+16] <= want {
				m1 = 1
			}
			if vals[j+32] <= want {
				m2 = 1
			}
			if vals[j+48] <= want {
				m3 = 1
			}
			w0, w1, w2, w3 = w0<<1|m0, w1<<1|m1, w2<<1|m2, w3<<1|m3
		}
		return w0 | w1<<16 | w2<<32 | w3<<48
	}
	for j := len(vals) - 1; j >= 0; j-- {
		var m uint64
		if vals[j] <= want {
			m = 1
		}
		w = w<<1 | m
	}
	return w
}

func gtBits[T int64 | float64 | string](vals []T, want T) (w uint64) {
	if len(vals) == 64 {
		var w0, w1, w2, w3 uint64
		for j := 15; j >= 0; j-- {
			var m0, m1, m2, m3 uint64
			if vals[j] > want {
				m0 = 1
			}
			if vals[j+16] > want {
				m1 = 1
			}
			if vals[j+32] > want {
				m2 = 1
			}
			if vals[j+48] > want {
				m3 = 1
			}
			w0, w1, w2, w3 = w0<<1|m0, w1<<1|m1, w2<<1|m2, w3<<1|m3
		}
		return w0 | w1<<16 | w2<<32 | w3<<48
	}
	for j := len(vals) - 1; j >= 0; j-- {
		var m uint64
		if vals[j] > want {
			m = 1
		}
		w = w<<1 | m
	}
	return w
}

func geBits[T int64 | float64 | string](vals []T, want T) (w uint64) {
	if len(vals) == 64 {
		var w0, w1, w2, w3 uint64
		for j := 15; j >= 0; j-- {
			var m0, m1, m2, m3 uint64
			if vals[j] >= want {
				m0 = 1
			}
			if vals[j+16] >= want {
				m1 = 1
			}
			if vals[j+32] >= want {
				m2 = 1
			}
			if vals[j+48] >= want {
				m3 = 1
			}
			w0, w1, w2, w3 = w0<<1|m0, w1<<1|m1, w2<<1|m2, w3<<1|m3
		}
		return w0 | w1<<16 | w2<<32 | w3<<48
	}
	for j := len(vals) - 1; j >= 0; j-- {
		var m uint64
		if vals[j] >= want {
			m = 1
		}
		w = w<<1 | m
	}
	return w
}

func inBits[T int64 | float64 | string](vals []T, set []T) (w uint64) {
	for j, v := range vals {
		if contains(set, v) {
			w |= 1 << uint(j)
		}
	}
	return w
}

// Bitmap evaluates the conjunction over every compiled row into a
// fresh bitmap.
func (c *Compiled) Bitmap() *bitset.Bitset {
	b := bitset.New(c.n)
	c.EvalRange(b, 0, c.n)
	return b
}

// EstimateSelectivity samples up to sampleSize rows and returns the
// fraction matching — the statistic rule-based planners (Qdrant,
// Vespa) key their pre/post-filter decision on. Rows are drawn with a
// deterministic xorshift rather than a fixed stride so periodic
// attribute patterns cannot alias with the sample.
func (c *Compiled) EstimateSelectivity(sampleSize int) float64 {
	n := c.n
	if n == 0 {
		return 1
	}
	if sampleSize <= 0 || sampleSize >= n {
		b := c.Bitmap()
		return float64(b.Count()) / float64(n)
	}
	match := 0
	state := uint64(88172645463325252)
	for i := 0; i < sampleSize; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		if c.Match(int64(state % uint64(n))) {
			match++
		}
	}
	return float64(match) / float64(sampleSize)
}
