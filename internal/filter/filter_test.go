package filter

import (
	"testing"
)

func buildTable(t *testing.T, n int) *Table {
	t.Helper()
	tbl := NewTable()
	if _, err := tbl.AddColumn("price", Float64); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AddColumn("stock", Int64); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AddColumn("brand", String); err != nil {
		t.Fatal(err)
	}
	brands := []string{"acme", "globex", "initech"}
	for i := 0; i < n; i++ {
		err := tbl.AppendRow(map[string]Value{
			"price": FloatV(float64(i)),
			"stock": IntV(int64(i % 10)),
			"brand": StringV(brands[i%3]),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestColumnBasics(t *testing.T) {
	c := NewColumn("x", Int64)
	if c.Name() != "x" || c.Kind() != Int64 || c.Len() != 0 {
		t.Fatal("fresh column wrong")
	}
	c.Append(IntV(7))
	if c.Len() != 1 || c.Get(0).I != 7 {
		t.Fatal("append/get wrong")
	}
}

func TestTableSchemaRules(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.AddColumn("a", Int64); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AddColumn("a", Int64); err == nil {
		t.Fatal("want duplicate-column error")
	}
	if err := tbl.AppendRow(map[string]Value{"a": IntV(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AddColumn("b", Int64); err == nil {
		t.Fatal("want error adding column after rows")
	}
	if err := tbl.AppendRow(map[string]Value{"b": IntV(1)}); err == nil {
		t.Fatal("want unknown-column error")
	}
	if err := tbl.AppendRow(map[string]Value{}); err == nil {
		t.Fatal("want arity error")
	}
	if got := tbl.Columns(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Columns = %v", got)
	}
}

func TestPredicateOps(t *testing.T) {
	tbl := buildTable(t, 30)
	cases := []struct {
		pred Predicate
		id   int
		want bool
	}{
		{Predicate{Column: "price", Op: Eq, Value: FloatV(5)}, 5, true},
		{Predicate{Column: "price", Op: Ne, Value: FloatV(5)}, 5, false},
		{Predicate{Column: "price", Op: Lt, Value: FloatV(5)}, 4, true},
		{Predicate{Column: "price", Op: Le, Value: FloatV(5)}, 5, true},
		{Predicate{Column: "price", Op: Gt, Value: FloatV(5)}, 5, false},
		{Predicate{Column: "price", Op: Ge, Value: FloatV(5)}, 5, true},
		{Predicate{Column: "stock", Op: Eq, Value: IntV(3)}, 13, true},
		{Predicate{Column: "brand", Op: Eq, Value: StringV("acme")}, 0, true},
		{Predicate{Column: "brand", Op: Eq, Value: StringV("acme")}, 1, false},
		{Predicate{Column: "brand", Op: In, Set: []Value{StringV("acme"), StringV("globex")}}, 1, true},
		{Predicate{Column: "brand", Op: In, Set: []Value{StringV("nope")}}, 1, false},
	}
	for i, tc := range cases {
		got, err := tbl.Matches([]Predicate{tc.pred}, tc.id)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != tc.want {
			t.Fatalf("case %d: %v %s -> %v, want %v", i, tc.pred.Column, tc.pred.Op, got, tc.want)
		}
	}
}

func TestConjunction(t *testing.T) {
	tbl := buildTable(t, 30)
	preds := []Predicate{
		{Column: "price", Op: Lt, Value: FloatV(10)},
		{Column: "stock", Op: Ge, Value: IntV(5)},
	}
	ok, err := tbl.Matches(preds, 7) // price 7 < 10, stock 7 >= 5
	if err != nil || !ok {
		t.Fatalf("row 7: %v %v", ok, err)
	}
	ok, _ = tbl.Matches(preds, 3) // stock 3 < 5
	if ok {
		t.Fatal("row 3 should not match")
	}
}

func TestBitmapAndFilterFuncAgree(t *testing.T) {
	tbl := buildTable(t, 60)
	preds := []Predicate{{Column: "stock", Op: Lt, Value: IntV(3)}}
	bm, err := tbl.Bitmap(preds)
	if err != nil {
		t.Fatal(err)
	}
	fn := tbl.FilterFunc(preds)
	for id := 0; id < 60; id++ {
		if bm.Test(id) != fn(int64(id)) {
			t.Fatalf("bitmap and filter disagree at %d", id)
		}
	}
	if bm.Count() != 18 { // stocks 0,1,2 of each decade
		t.Fatalf("bitmap count = %d", bm.Count())
	}
}

func TestSelectivityEstimate(t *testing.T) {
	tbl := buildTable(t, 1000)
	preds := []Predicate{{Column: "stock", Op: Eq, Value: IntV(0)}}
	sel, err := tbl.EstimateSelectivity(preds, 0) // full scan
	if err != nil {
		t.Fatal(err)
	}
	if sel != 0.1 {
		t.Fatalf("exact selectivity = %v, want 0.1", sel)
	}
	approx, err := tbl.EstimateSelectivity(preds, 100)
	if err != nil {
		t.Fatal(err)
	}
	if approx < 0.0 || approx > 0.3 {
		t.Fatalf("sampled selectivity = %v", approx)
	}
	empty := NewTable()
	if sel, _ := empty.EstimateSelectivity(nil, 10); sel != 1 {
		t.Fatalf("empty table selectivity = %v", sel)
	}
}

func TestValidateAndErrors(t *testing.T) {
	tbl := buildTable(t, 5)
	if _, err := tbl.Compile([]Predicate{{Column: "nope", Op: Eq}}); err == nil {
		t.Fatal("want unknown-column error")
	}
	if _, err := tbl.Compile([]Predicate{{Column: "price", Op: Eq}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Matches([]Predicate{{Column: "nope", Op: Eq}}, 0); err == nil {
		t.Fatal("want error from Matches")
	}
	if _, err := tbl.Bitmap([]Predicate{{Column: "nope", Op: Eq}}); err == nil {
		t.Fatal("want error from Bitmap")
	}
	if _, err := tbl.EstimateSelectivity([]Predicate{{Column: "nope", Op: Eq}}, 2); err == nil {
		t.Fatal("want error from EstimateSelectivity")
	}
	// FilterFunc swallows errors as non-matches.
	if tbl.FilterFunc([]Predicate{{Column: "nope", Op: Eq}})(0) {
		t.Fatal("bad predicate should not match")
	}
	if _, err := tbl.Matches([]Predicate{{Column: "price", Op: Op(99)}}, 0); err == nil {
		t.Fatal("want unknown-op error")
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{Eq: "=", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=", In: "in"} {
		if op.String() != want {
			t.Fatalf("%v", op)
		}
	}
}
