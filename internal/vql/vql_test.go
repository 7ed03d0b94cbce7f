package vql

import (
	"strings"
	"testing"

	"vdbms"
	"vdbms/internal/dataset"
)

func TestParseFull(t *testing.T) {
	name, q, err := Parse("SELECT 10 FROM products WHERE price < 20.5 AND brand = 'acme' AND cat IN (1, 2, 3) NEAR [0.1, -2, 3e1] WITH ef = 100, policy = 'plan:single_stage'")
	if err != nil {
		t.Fatal(err)
	}
	if q.K != 10 || name != "products" {
		t.Fatalf("header: %q %+v", name, q)
	}
	if len(q.Filters) != 3 {
		t.Fatalf("filters: %+v", q.Filters)
	}
	if q.Filters[0].Op != "<" || q.Filters[0].Value.(float64) != 20.5 {
		t.Fatalf("f0 = %+v", q.Filters[0])
	}
	if q.Filters[1].Op != "=" || q.Filters[1].Value.(string) != "acme" {
		t.Fatalf("f1 = %+v", q.Filters[1])
	}
	if q.Filters[2].Op != "in" || len(q.Filters[2].Set) != 3 || q.Filters[2].Set[0].(int) != 1 {
		t.Fatalf("f2 = %+v", q.Filters[2])
	}
	if len(q.Vector) != 3 || q.Vector[0] != 0.1 || q.Vector[1] != -2 || q.Vector[2] != 30 {
		t.Fatalf("vector = %v", q.Vector)
	}
	if q.Ef != 100 || q.Policy != "plan:single_stage" {
		t.Fatalf("options: %+v", q)
	}
}

func TestParseMinimal(t *testing.T) {
	name, q, err := Parse("select 5 from c near [1,2]")
	if err != nil {
		t.Fatal(err)
	}
	if q.K != 5 || name != "c" || len(q.Vector) != 2 || len(q.Filters) != 0 {
		t.Fatalf("%q %+v", name, q)
	}
}

func TestParseOperators(t *testing.T) {
	for _, op := range []string{"=", "==", "!=", "<", "<=", ">", ">="} {
		_, q, err := Parse("SELECT 1 FROM c WHERE x " + op + " 5 NEAR [1]")
		if err != nil {
			t.Fatalf("op %s: %v", op, err)
		}
		want := op
		if op == "==" {
			want = "="
		}
		if q.Filters[0].Op != want {
			t.Fatalf("op %s parsed as %s", op, q.Filters[0].Op)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT x FROM c NEAR [1]",
		"SELECT 0 FROM c NEAR [1]",
		"SELECT 5 FROM c",                        // missing NEAR
		"SELECT 5 FROM c NEAR []",                // empty vector
		"SELECT 5 FROM c NEAR [1] WITH ef",       // missing =
		"SELECT 5 FROM c NEAR [1] WITH ef = 'x'", // wrong type
		"SELECT 5 FROM c NEAR [1] WITH zz = 1",
		"SELECT 5 FROM c NEAR [1] WITH policy = 3",
		"SELECT 5 FROM c WHERE NEAR [1]",
		"SELECT 5 FROM c WHERE x ~ 3 NEAR [1]",
		"SELECT 5 FROM c WHERE x IN 3 NEAR [1]",
		"SELECT 5 FROM c WHERE x IN (3; 4) NEAR [1]",
		"SELECT 5 FROM c BOGUS [1]",
		"SELECT 5 FROM c NEAR [1] 'trailing",
		"SELECT 5 FROM c NEAR [a]",
		"SELECT 5 FROM 42 NEAR [1]",
	}
	for _, src := range cases {
		if _, _, err := Parse(src); err == nil {
			t.Fatalf("no error for %q", src)
		}
	}
}

func TestLexStringsAndNumbers(t *testing.T) {
	toks, err := lex("'hello world' -3.5e-2 foo_bar <=")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 {
		t.Fatalf("toks = %+v", toks)
	}
	if toks[0].kind != tokString || toks[0].text != "hello world" {
		t.Fatalf("string tok = %+v", toks[0])
	}
	if toks[1].kind != tokNumber || toks[1].text != "-3.5e-2" {
		t.Fatalf("number tok = %+v", toks[1])
	}
	if toks[3].text != "<=" {
		t.Fatalf("op tok = %+v", toks[3])
	}
	if _, err := lex("@"); err == nil {
		t.Fatal("want lex error")
	}
}

func TestRunSelectEndToEnd(t *testing.T) {
	db := vdbms.New()
	col, err := db.CreateCollection("items", vdbms.Schema{
		Dim:        4,
		Attributes: map[string]string{"price": "float"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(200, 4, 3, 0.3, 1)
	for i := 0; i < 200; i++ {
		if _, err := col.Insert(ds.Row(i), map[string]any{"price": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	row := ds.Row(7)
	var sb strings.Builder
	sb.WriteString("SELECT 3 FROM items WHERE price < 100.0 NEAR [")
	for i, x := range row {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(trimFloat(x))
	}
	sb.WriteString("]")
	res, err := Run(db, sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "select" || len(res.Search.Hits) != 3 || res.Search.Hits[0].ID != 7 {
		t.Fatalf("select: %+v", res)
	}
	// Unknown collection.
	if _, err := Run(db, "SELECT 1 FROM nope NEAR [1,2,3,4]"); err == nil {
		t.Fatal("want unknown-collection error")
	}
	// Parse error propagates.
	if _, err := Run(db, "SELECT"); err == nil {
		t.Fatal("want parse error")
	}
}

func trimFloat(x float32) string {
	s := strings.TrimRight(strings.TrimRight(
		// enough digits to reconstruct float32 exactly for the test
		fmtFloat(x), "0"), ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

func fmtFloat(x float32) string {
	return strconvFormat(float64(x))
}
