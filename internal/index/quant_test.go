package index

import (
	"math"
	"testing"

	"vdbms/internal/bitset"
	"vdbms/internal/dataset"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// TestFlatQuantExactWithFullRerank: rerank_k = n makes the compressed
// scan a candidate-generation no-op — every row survives to the exact
// re-rank, so results must be byte-identical to the full-precision
// flat scan, for every codec and metric the codec supports.
func TestFlatQuantExactWithFullRerank(t *testing.T) {
	const n, k = 400, 10
	ds := dataset.Clustered(n, 16, 4, 0.4, 21)
	cases := []struct {
		spec    QuantSpec
		metrics []vec.Metric
	}{
		{QuantSpec{Kind: QuantSQ8}, []vec.Metric{vec.L2, vec.InnerProduct, vec.Cosine}},
		{QuantSpec{Kind: QuantPQ}, []vec.Metric{vec.L2}},
		{QuantSpec{Kind: QuantOPQ}, []vec.Metric{vec.L2}},
	}
	for _, tc := range cases {
		for _, m := range tc.metrics {
			exact, err := NewFlatQuant(ds.Data, n, ds.Dim, m, QuantSpec{})
			if err != nil {
				t.Fatal(err)
			}
			qf, err := NewFlatQuant(ds.Data, n, ds.Dim, m, tc.spec)
			if err != nil {
				t.Fatalf("%v/%v: %v", tc.spec.Kind, m, err)
			}
			if !qf.QuantizedScan() {
				t.Fatalf("%v/%v: QuantizedScan() = false", tc.spec.Kind, m)
			}
			for qi, q := range ds.Queries(5, 0.05, 22) {
				want, err := exact.Search(q, k, Params{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := qf.Search(q, k, Params{RerankK: n})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%v/%v query %d: %d hits, want %d", tc.spec.Kind, m, qi, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v/%v query %d hit %d: %+v, want %+v", tc.spec.Kind, m, qi, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestFlatQuantDefaultRerankRecall: with the default re-rank width the
// compressed scan is approximate but must stay near-exact on a small
// collection, and every reported distance is full precision.
func TestFlatQuantDefaultRerankRecall(t *testing.T) {
	const n, k = 1000, 10
	ds := dataset.Clustered(n, 16, 8, 0.4, 23)
	qf, err := NewFlatQuant(ds.Data, n, ds.Dim, vec.L2, QuantSpec{Kind: QuantSQ8})
	if err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(10, 0.05, 24)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, k)
	var recall float64
	for i, q := range qs {
		got, err := qf.Search(q, k, Params{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			exact := vec.SquaredL2(q, ds.Row(int(r.ID)))
			if math.Abs(float64(r.Dist-exact)) > 1e-4 {
				t.Fatalf("query %d id %d: dist %v is approximate, want exact %v", i, r.ID, r.Dist, exact)
			}
		}
		recall += dataset.Recall(got, truth[i])
	}
	if recall/float64(len(qs)) < 0.95 {
		t.Fatalf("sq8 default-rerank recall = %.3f, want >= 0.95", recall/float64(len(qs)))
	}
}

// TestFlatQuantPredicated: the gathered (ScoreIDs) quantized path must
// honor block-first predicates — only admitted ids, exact distances.
func TestFlatQuantPredicated(t *testing.T) {
	const n, k = 500, 5
	ds := dataset.Clustered(n, 8, 4, 0.4, 25)
	qf, err := NewFlatQuant(ds.Data, n, ds.Dim, vec.L2, QuantSpec{Kind: QuantSQ8})
	if err != nil {
		t.Fatal(err)
	}
	allow := bitset.New(n)
	for i := 0; i < n; i += 3 {
		allow.Set(i)
	}
	q := ds.Queries(1, 0.05, 26)[0]
	got, err := qf.Search(q, k, Params{Allow: allow, RerankK: n})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != k {
		t.Fatalf("%d hits, want %d", len(got), k)
	}
	// Reference: exact scan over admitted rows only.
	c := topk.NewCollector(k)
	for i := 0; i < n; i += 3 {
		c.Push(int64(i), vec.SquaredL2(q, ds.Row(i)))
	}
	want := c.Results()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestResolveRerankK(t *testing.T) {
	s := QuantSpec{RerankK: 100}
	if got := s.ResolveRerankK(Params{}, 10, 1000); got != 100 {
		t.Fatalf("configured width: %d", got)
	}
	if got := s.ResolveRerankK(Params{RerankK: 7}, 10, 1000); got != 10 {
		t.Fatalf("per-query override clamps to k: %d", got)
	}
	if got := s.ResolveRerankK(Params{RerankK: 5000}, 10, 1000); got != 1000 {
		t.Fatalf("clamp to n: %d", got)
	}
	if got := (QuantSpec{}).ResolveRerankK(Params{}, 10, 1000); got != 40 {
		t.Fatalf("default max(4k,32): %d", got)
	}
	if got := (QuantSpec{}).ResolveRerankK(Params{}, 3, 1000); got != 32 {
		t.Fatalf("default floor 32: %d", got)
	}
}

func TestMergeQuantDefaults(t *testing.T) {
	// Schema default lands on a quant-capable family.
	got, err := MergeQuantDefaults("flat", nil, "sq8", 64)
	if err != nil {
		t.Fatal(err)
	}
	if got["quant"] != int(QuantSQ8) || got["rerank_k"] != 64 {
		t.Fatalf("merged = %v", got)
	}
	// Explicit opts win over the schema default.
	got, err = MergeQuantDefaults("flat", map[string]int{"quant": int(QuantNone), "rerank_k": 8}, "sq8", 64)
	if err != nil {
		t.Fatal(err)
	}
	if got["quant"] != int(QuantNone) || got["rerank_k"] != 8 {
		t.Fatalf("explicit opts overridden: %v", got)
	}
	// Families that cannot scan codes are left untouched, so a
	// schema-wide default cannot break CreateIndex("kdtree").
	got, err = MergeQuantDefaults("kdtree", map[string]int{"leaf": 8}, "sq8", 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, has := got["quant"]; has || len(got) != 1 {
		t.Fatalf("kdtree opts polluted: %v", got)
	}
	// Rerank-capable families (codes built-in) get only rerank_k.
	got, err = MergeQuantDefaults("ivfsq", map[string]int{"nlist": 4}, "sq8", 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, has := got["quant"]; has || got["rerank_k"] != 64 {
		t.Fatalf("ivfsq merge = %v", got)
	}
	if _, err := MergeQuantDefaults("flat", nil, "bogus", 0); err == nil {
		t.Fatal("unknown quantization; want error")
	}
}
