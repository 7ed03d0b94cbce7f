package filter

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vdbms/internal/bitset"
)

// refMatch is the reference evaluator the compiled forms are compared
// against: one predicate, one row, straight from the definition, with
// the values passed in (no table, no compile step, no typed sets).
func refMatch(kind Kind, op Op, have, want Value, set []Value) bool {
	switch kind {
	case Int64:
		return refCompare(op, have.I, want.I, set, func(v Value) int64 { return v.I })
	case Float64:
		return refCompare(op, have.F, want.F, set, func(v Value) float64 { return v.F })
	default:
		return refCompare(op, have.S, want.S, set, func(v Value) string { return v.S })
	}
}

func refCompare[T int64 | float64 | string](op Op, have, want T, set []Value, get func(Value) T) bool {
	switch op {
	case Eq:
		return have == want
	case Ne:
		return have != want
	case Lt:
		return have < want
	case Le:
		return have <= want
	case Gt:
		return have > want
	case Ge:
		return have >= want
	default:
		for _, s := range set {
			if have == get(s) {
				return true
			}
		}
		return false
	}
}

// differentialTable holds one column per kind, filled with the values
// that break careless evaluators: extremes, NaN and the infinities,
// signed zeros, the empty string, and runs of duplicates.
func differentialTable(t testing.TB, n int, seed int64) (*Table, map[string][]Value) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ints := []int64{0, 1, -1, 7, 42, math.MaxInt64, math.MinInt64}
	flts := []float64{0, math.Copysign(0, -1), 1.5, -1.5, 42, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	strs := []string{"", "a", "b", "ab", "acme", "zeta", "\x00", "Ab"}
	tbl := NewTable()
	for name, kind := range map[string]Kind{"i": Int64, "f": Float64, "s": String} {
		if _, err := tbl.AddColumn(name, kind); err != nil {
			t.Fatal(err)
		}
	}
	rows := map[string][]Value{}
	for r := 0; r < n; r++ {
		row := map[string]Value{
			"i": IntV(ints[rng.Intn(len(ints))]),
			"f": FloatV(flts[rng.Intn(len(flts))]),
			"s": StringV(strs[rng.Intn(len(strs))]),
		}
		if rng.Intn(4) == 0 { // a quarter of the rows are arbitrary values
			row["i"] = IntV(rng.Int63n(100) - 50)
			row["f"] = FloatV(rng.NormFloat64())
		}
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
		for name, v := range row {
			rows[name] = append(rows[name], v)
		}
	}
	return tbl, rows
}

// operands returns, per column, comparison operands and IN sets:
// empty, duplicated, large enough for the binary search, NaN-bearing.
func operands() map[string]struct {
	kind Kind
	vals []Value
	sets [][]Value
} {
	large := func(mk func(i int) Value) []Value {
		out := make([]Value, 0, 40)
		for i := 0; i < 40; i++ {
			out = append(out, mk(i))
		}
		return out
	}
	return map[string]struct {
		kind Kind
		vals []Value
		sets [][]Value
	}{
		"i": {Int64,
			[]Value{IntV(0), IntV(7), IntV(-1), IntV(math.MaxInt64), IntV(math.MinInt64), IntV(13)},
			[][]Value{nil, {IntV(7)}, {IntV(7), IntV(7), IntV(0), IntV(7)}, large(func(i int) Value { return IntV(int64(i*3 - 50)) })}},
		"f": {Float64,
			[]Value{FloatV(0), FloatV(1.5), FloatV(math.NaN()), FloatV(math.Inf(1)), FloatV(math.Inf(-1)), FloatV(math.Copysign(0, -1)), FloatV(0.25)},
			[][]Value{nil, {FloatV(math.NaN())}, {FloatV(1.5), FloatV(math.NaN()), FloatV(1.5), FloatV(math.Inf(-1))}, {FloatV(math.Copysign(0, -1))},
				large(func(i int) Value { return FloatV(float64(i)/4 - 5) })}},
		"s": {String,
			[]Value{StringV(""), StringV("a"), StringV("ab"), StringV("zeta"), StringV("m")},
			[][]Value{nil, {StringV("")}, {StringV("acme"), StringV("acme"), StringV("b")}, large(func(i int) Value { return StringV(fmt.Sprintf("k%02d", i)) }),
				append(large(func(i int) Value { return StringV(fmt.Sprintf("k%02d", i)) }), StringV("acme"), StringV(""))}},
	}
}

// TestCompiledAgreesWithReference compares, for every Kind x Op, the
// per-id matcher and the block evaluator (whole table, ranges not
// aligned to 64, the tail word) with the reference evaluator, on a
// table whose row count is not a multiple of 64.
func TestCompiledAgreesWithReference(t *testing.T) {
	const n = 64*3 + 37
	tbl, rows := differentialTable(t, n, 1)
	ranges := [][2]int{{0, n}, {0, 64}, {1, 63}, {63, 65}, {5, 200}, {64, 128}, {130, n}, {n - 1, n}, {192, n}, {17, 17}}
	for col, o := range operands() {
		for op := Eq; op <= In; op++ {
			var preds []Predicate
			if op == In {
				for _, set := range o.sets {
					preds = append(preds, Predicate{Column: col, Op: In, Set: set})
				}
			} else {
				for _, v := range o.vals {
					preds = append(preds, Predicate{Column: col, Op: op, Value: v})
				}
			}
			for _, p := range preds {
				c, err := tbl.Compile([]Predicate{p})
				if err != nil {
					t.Fatal(err)
				}
				want := make([]bool, n)
				for id := range want {
					want[id] = refMatch(o.kind, op, rows[col][id], p.Value, p.Set)
					if got := c.Match(int64(id)); got != want[id] {
						t.Fatalf("%s %v %+v: Match(%d) = %v, reference %v (row %+v)", col, op, p, id, got, want[id], rows[col][id])
					}
				}
				for _, r := range ranges {
					// Start from all-ones: EvalRange must overwrite its
					// range and leave every other bit alone.
					bm := bitset.New(n)
					bm.SetAll()
					c.EvalRange(bm, r[0], r[1])
					for id := 0; id < n; id++ {
						exp := true
						if id >= r[0] && id < r[1] {
							exp = want[id]
						}
						if bm.Test(id) != exp {
							t.Fatalf("%s %v %+v: EvalRange[%d,%d) bit %d = %v, want %v", col, op, p, r[0], r[1], id, bm.Test(id), exp)
						}
					}
					if tail := bm.Words()[len(bm.Words())-1] >> (n & 63); tail != 0 {
						t.Fatalf("%s %v: EvalRange[%d,%d) set bits past row %d: %#x", col, op, r[0], r[1], n, tail)
					}
				}
			}
		}
	}
	if c, _ := tbl.Compile(nil); c.Match(-1) || c.Match(n) || !c.Match(0) {
		t.Fatal("the empty conjunction matches exactly the compiled rows")
	}
}

// TestCompiledConjunctionAndEmpty: later terms AND into the first
// term's words inside the range only, and the empty conjunction
// admits every row of the range.
func TestCompiledConjunctionAndEmpty(t *testing.T) {
	const n = 150
	tbl, rows := differentialTable(t, n, 2)
	preds := []Predicate{
		{Column: "i", Op: Ge, Value: IntV(0)},
		{Column: "f", Op: Lt, Value: FloatV(2)},
		{Column: "s", Op: Ne, Value: StringV("")},
	}
	c, err := tbl.Compile(preds)
	if err != nil {
		t.Fatal(err)
	}
	bm := bitset.New(n)
	c.EvalRange(bm, 3, 141)
	for id := 0; id < n; id++ {
		want := id >= 3 && id < 141 && rows["i"][id].I >= 0 && rows["f"][id].F < 2 && rows["s"][id].S != ""
		if bm.Test(id) != want || (id >= 3 && id < 141 && c.Match(int64(id)) != want) {
			t.Fatalf("conjunction bit %d = %v, want %v", id, bm.Test(id), want)
		}
	}
	all, err := tbl.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	bm.ClearAll()
	all.EvalRange(bm, 70, 130)
	if bm.Count() != 60 || !bm.Test(70) || bm.Test(69) || !bm.Test(129) || bm.Test(130) {
		t.Fatalf("empty conjunction over [70,130): %d bits", bm.Count())
	}
}

// TestCompiledPinsItsView: a view shorter than the table compiles over
// the view's rows only, and a Compiled keeps answering for exactly
// those rows while the table grows and its columns reallocate.
func TestCompiledPinsItsView(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.AddColumn("x", Int64); err != nil {
		t.Fatal(err)
	}
	add := func(from, to int) {
		for i := from; i < to; i++ {
			if err := tbl.AppendRow(map[string]Value{"x": IntV(int64(i % 10))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(0, 100)
	preds := []Predicate{{Column: "x", Op: Lt, Value: IntV(5)}}
	c, err := tbl.View(70).Compile(preds)
	if err != nil {
		t.Fatal(err)
	}
	add(100, 5000) // forces the column to reallocate several times
	if c.Rows() != 70 {
		t.Fatalf("Rows = %d, want 70", c.Rows())
	}
	bm := c.Bitmap()
	if bm.Len() != 70 || bm.Count() != 35 {
		t.Fatalf("bitmap over the view: len %d count %d, want 70/35", bm.Len(), bm.Count())
	}
	for id := int64(0); id < 120; id++ {
		if want := id < 70 && id%10 < 5; c.Match(id) != want {
			t.Fatalf("Match(%d) = %v, want %v", id, !want, want)
		}
	}
	wide := bitset.New(5000)
	c.EvalRange(wide, 0, 5000) // hi is clipped to the compiled rows
	if wide.Count() != 35 {
		t.Fatalf("EvalRange past the view set %d bits, want 35", wide.Count())
	}
	if sel := c.EstimateSelectivity(0); sel != 0.5 {
		t.Fatalf("exact selectivity over the view = %v, want 0.5", sel)
	}
}

// TestCompiledIsAllocationFree: after Compile neither evaluator
// allocates.
func TestCompiledIsAllocationFree(t *testing.T) {
	const n = 1000
	tbl, _ := differentialTable(t, n, 3)
	c, err := tbl.Compile([]Predicate{
		{Column: "i", Op: Lt, Value: IntV(10)},
		{Column: "s", Op: In, Set: []Value{StringV("a"), StringV("acme")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bm := bitset.New(n)
	hits := 0
	if a := testing.AllocsPerRun(100, func() {
		for id := int64(0); id < n; id++ {
			if c.Match(id) {
				hits++
			}
		}
	}); a != 0 {
		t.Fatalf("Match allocates %v times per %d rows", a, n)
	}
	if a := testing.AllocsPerRun(100, func() { c.EvalRange(bm, 0, n) }); a != 0 {
		t.Fatalf("EvalRange allocates %v times per call", a)
	}
}
