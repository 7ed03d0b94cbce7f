package vdbms

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"vdbms/internal/dataset"
)

func productCollection(t *testing.T, n int) (*Collection, *dataset.Dataset) {
	t.Helper()
	db := New()
	col, err := db.CreateCollection("products", Schema{
		Dim:    16,
		Metric: "l2",
		Attributes: map[string]string{
			"price": "float",
			"cat":   "int",
			"brand": "string",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(n, 16, 8, 0.4, 1)
	brands := []string{"acme", "globex", "initech"}
	for i := 0; i < n; i++ {
		_, err := col.Insert(ds.Row(i), map[string]any{
			"price": float64(i % 500),
			"cat":   i % 100,
			"brand": brands[i%3],
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return col, ds
}

func TestDBCollectionLifecycle(t *testing.T) {
	db := New()
	if _, err := db.CreateCollection("a", Schema{Dim: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateCollection("a", Schema{Dim: 4}); err == nil {
		t.Fatal("want duplicate error")
	}
	if _, err := db.Collection("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Collection("zz"); err == nil {
		t.Fatal("want unknown error")
	}
	if got := db.Collections(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Collections = %v", got)
	}
	if err := db.DropCollection("a"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropCollection("a"); err == nil {
		t.Fatal("want drop error")
	}
}

func TestSchemaValidation(t *testing.T) {
	db := New()
	if _, err := db.CreateCollection("x", Schema{Dim: 0}); err == nil {
		t.Fatal("want dim error")
	}
	if _, err := db.CreateCollection("x", Schema{Dim: 2, Metric: "bogus"}); err == nil {
		t.Fatal("want metric error")
	}
	if _, err := db.CreateCollection("x", Schema{Dim: 2, Attributes: map[string]string{"a": "blob"}}); err == nil {
		t.Fatal("want attribute-type error")
	}
}

func TestInsertGetDelete(t *testing.T) {
	col, ds := productCollection(t, 50)
	if col.Len() != 50 || col.Dim() != 16 || col.Name() != "products" {
		t.Fatal("metadata wrong")
	}
	v, attrs, err := col.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != ds.Row(3)[0] {
		t.Fatal("vector mismatch")
	}
	if attrs["price"].(float64) != 3 || attrs["cat"].(int64) != 3 || attrs["brand"].(string) != "acme" {
		t.Fatalf("attrs = %v", attrs)
	}
	if err := col.Delete(3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := col.Get(3); err == nil {
		t.Fatal("deleted id should error")
	}
	if err := col.Delete(3); err == nil {
		t.Fatal("double delete should error")
	}
	if col.Len() != 49 {
		t.Fatal("Len after delete wrong")
	}
	// Bad inserts.
	if _, err := col.Insert([]float32{1}, nil); err == nil {
		t.Fatal("want dim error")
	}
	if _, err := col.Insert(ds.Row(0), map[string]any{"price": struct{}{}}); err == nil {
		t.Fatal("want type error")
	}
}

func TestExactSearchWithoutIndex(t *testing.T) {
	col, ds := productCollection(t, 300)
	res, err := col.Search(SearchRequest{Vector: ds.Row(7), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 3 || res.Hits[0].ID != 7 || res.Hits[0].Dist != 0 {
		t.Fatalf("hits = %v", res.Hits)
	}
	if res.Plan != "brute_force" {
		t.Fatalf("plan = %s", res.Plan)
	}
}

func TestIndexedSearchAndPlans(t *testing.T) {
	col, ds := productCollection(t, 1500)
	if err := col.CreateIndex("hnsw", map[string]int{"m": 8}); err != nil {
		t.Fatal(err)
	}
	kind, covered, dirty := col.IndexInfo()
	if kind != "hnsw" || covered != 1500 || dirty != 0 {
		t.Fatalf("IndexInfo = %s %d %d", kind, covered, dirty)
	}
	q := ds.Queries(1, 0.05, 2)[0]
	for _, policy := range []string{"", "plan:pre_filter", "plan:post_filter", "plan:single_stage", "plan:brute_force"} {
		res, err := col.Search(SearchRequest{
			Vector:  q,
			K:       10,
			Filters: []Filter{{Column: "cat", Op: "<", Value: 50}},
			Policy:  policy,
			Ef:      100,
		})
		if err != nil {
			t.Fatalf("policy %q: %v", policy, err)
		}
		if len(res.Hits) == 0 {
			t.Fatalf("policy %q returned nothing", policy)
		}
		for _, h := range res.Hits {
			if h.ID%100 >= 50 {
				t.Fatalf("policy %q violated filter: id %d", policy, h.ID)
			}
		}
	}
	// The optimizer is "" and forcing is plan:<kind>; the retired policy
	// and profile names are errors like any other unknown value.
	for _, policy := range []string{"plan:bogus", "bogus", "cost", "rule", "adaptive",
		"vearch", "weaviate", "euclid", "analyticdb-v", "milvus", "qdrant"} {
		if _, err := col.Search(SearchRequest{Vector: q, K: 5, Policy: policy}); err == nil {
			t.Fatalf("policy %q: want an unknown-policy error", policy)
		}
		if _, err := col.SearchBatch([][]float32{q}, SearchRequest{K: 5, Policy: policy}); err == nil {
			t.Fatalf("batch policy %q: want an unknown-policy error", policy)
		}
	}
}

func TestAllIndexKindsBuildAndSearch(t *testing.T) {
	col, ds := productCollection(t, 400)
	q := ds.Queries(1, 0.05, 3)[0]
	for _, kind := range IndexKinds() {
		var opts map[string]int
		switch kind {
		case "ivfsq":
			opts = map[string]int{"nlist": 8}
		case "ivfadc":
			opts = map[string]int{"nlist": 8, "m": 4, "ks": 16}
		case "knng":
			opts = map[string]int{"k": 8, "iters": 4}
		}
		if err := col.CreateIndex(kind, opts); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res, err := col.Search(SearchRequest{Vector: q, K: 5, Ef: 100, NProbe: 8, Policy: "plan:single_stage"})
		if err != nil {
			t.Fatalf("%s search: %v", kind, err)
		}
		if len(res.Hits) == 0 {
			t.Fatalf("%s returned nothing", kind)
		}
	}
	if err := col.CreateIndex("bogus", nil); err == nil {
		t.Fatal("want unknown-index error")
	}
	col.DropIndex()
	if kind, _, _ := col.IndexInfo(); kind != "" {
		t.Fatal("DropIndex failed")
	}
}

func TestFiltersConversion(t *testing.T) {
	col, ds := productCollection(t, 200)
	res, err := col.Search(SearchRequest{
		Vector: ds.Row(0), K: 10,
		Filters: []Filter{{Column: "brand", Op: "in", Set: []any{"acme", "globex"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Hits {
		if h.ID%3 == 2 { // initech rows
			t.Fatalf("in-filter violated: %d", h.ID)
		}
	}
	if _, err := col.Search(SearchRequest{Vector: ds.Row(0), K: 1,
		Filters: []Filter{{Column: "price", Op: "~", Value: 1.0}}}); err == nil {
		t.Fatal("want op error")
	}
	if _, err := col.Search(SearchRequest{Vector: ds.Row(0), K: 1,
		Filters: []Filter{{Column: "price", Op: "=", Value: struct{}{}}}}); err == nil {
		t.Fatal("want value error")
	}
}

// TestFilterOperandCoercion: an operand is compared in its column's own
// type or not at all. Numbers convert when that is lossless, a
// fractional bound on an int column keeps its meaning, and everything
// else is a typed error — never a comparison against a zero value.
func TestFilterOperandCoercion(t *testing.T) {
	const n = 300
	col, ds := productCollection(t, n) // cat = i%100 (int), price = i%500 (float), brand (string)
	count := func(f Filter) int {
		t.Helper()
		res, err := col.Search(SearchRequest{Vector: ds.Row(0), K: n, Radius: math.MaxFloat32, Filters: []Filter{f}})
		if err != nil {
			t.Fatalf("%+v: %v", f, err)
		}
		return len(res.Hits)
	}
	same := [][2]Filter{
		{{Column: "cat", Op: "<", Value: 5.0}, {Column: "cat", Op: "<", Value: 5}},
		{{Column: "cat", Op: "<", Value: 2.5}, {Column: "cat", Op: "<=", Value: 2}},
		{{Column: "cat", Op: "<=", Value: 2.5}, {Column: "cat", Op: "<=", Value: 2}},
		{{Column: "cat", Op: ">", Value: float32(97.5)}, {Column: "cat", Op: ">=", Value: 98}},
		{{Column: "cat", Op: ">=", Value: 97.5}, {Column: "cat", Op: ">=", Value: 98}},
		{{Column: "cat", Op: "<", Value: -0.5}, {Column: "cat", Op: "<", Value: 0}},
		{{Column: "cat", Op: "in", Set: []any{2.5}}, {Column: "cat", Op: "in"}},
		{{Column: "cat", Op: "in", Set: []any{1.0, 2.5, 3, int64(7)}}, {Column: "cat", Op: "in", Set: []any{1, 3, 7}}},
		{{Column: "price", Op: ">=", Value: 250}, {Column: "price", Op: ">=", Value: 250.0}},
		{{Column: "price", Op: "in", Set: []any{1, int64(2), 3.0}}, {Column: "price", Op: "in", Set: []any{1.0, 2.0, 3.0}}},
	}
	for _, pair := range same {
		if got, want := count(pair[0]), count(pair[1]); got != want {
			t.Fatalf("%+v admits %d rows, %+v admits %d", pair[0], got, pair[1], want)
		}
	}
	if got := count(Filter{Column: "cat", Op: "<", Value: 5.0}); got != 15 {
		t.Fatalf("cat < 5.0 admits %d rows, want 15 (a float operand used to compare as cat < 0)", got)
	}
	if got := count(Filter{Column: "cat", Op: "=", Value: 2.5}); got != 0 {
		t.Fatalf("cat = 2.5 admits %d rows, want none", got)
	}
	if got := count(Filter{Column: "cat", Op: "!=", Value: 2.5}); got != n {
		t.Fatalf("cat != 2.5 admits %d rows, want all %d", got, n)
	}
	for _, bad := range []Filter{
		{Column: "cat", Op: "=", Value: "5"},
		{Column: "price", Op: "<", Value: "cheap"},
		{Column: "brand", Op: "=", Value: 5},
		{Column: "brand", Op: "in", Set: []any{"acme", 1.5}},
		{Column: "cat", Op: "in", Set: []any{1, "two"}},
		{Column: "cat", Op: "<"}, // no operand: never "cat < 0"
		{Column: "cat", Op: "<", Value: math.NaN()},
		{Column: "cat", Op: "<", Value: math.Inf(1)},
		{Column: "cat", Op: "<", Value: 1e19},
		{Column: "price", Op: "=", Value: int64(1<<53 + 1)},
	} {
		_, err := col.Search(SearchRequest{Vector: ds.Row(0), K: 1, Filters: []Filter{bad}})
		if !errors.Is(err, ErrFilterType) {
			t.Fatalf("%+v: error %v, want ErrFilterType", bad, err)
		}
	}
	if _, err := col.Search(SearchRequest{Vector: ds.Row(0), K: 1, After: &Hit{ID: 0, Dist: 0}, Filters: []Filter{{Column: "brand", Op: "<", Value: 1}}}); !errors.Is(err, ErrFilterType) {
		t.Fatalf("page: error %v, want ErrFilterType", err)
	}
	if _, err := col.SearchBatch([][]float32{ds.Row(0)}, SearchRequest{K: 1, Filters: []Filter{{Column: "cat", Op: "=", Value: "1"}}}); !errors.Is(err, ErrFilterType) {
		t.Fatalf("batch: error %v, want ErrFilterType", err)
	}
}

func TestDeletedRowsInvisible(t *testing.T) {
	col, ds := productCollection(t, 300)
	if err := col.CreateIndex("hnsw", nil); err != nil {
		t.Fatal(err)
	}
	if err := col.Delete(5); err != nil {
		t.Fatal(err)
	}
	res, err := col.Search(SearchRequest{Vector: ds.Row(5), K: 10, Ef: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Hits {
		if h.ID == 5 {
			t.Fatal("deleted id surfaced")
		}
	}
}

func TestUpdateTriggersRebuild(t *testing.T) {
	col, ds := productCollection(t, 200)
	if err := col.CreateIndex("hnsw", nil); err != nil {
		t.Fatal(err)
	}
	// Mutate 30% of rows: the write crossing the 20% threshold (update
	// #41 of 200 rows) starts a background rebuild. Searches proceed
	// against the old index while it runs.
	far := make([]float32, 16)
	for i := range far {
		far[i] = 99
	}
	for i := 0; i < 60; i++ {
		if err := col.UpdateVector(int64(i), far); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := col.Search(SearchRequest{Vector: ds.Row(100), K: 5}); err != nil {
		t.Fatal(err)
	}
	col.WaitForIndex()
	_, covered, dirty, building := col.IndexStatus()
	if building || covered != 200 {
		t.Fatalf("status after wait: covered=%d building=%v", covered, building)
	}
	// Updates issued after the trigger stay dirty against the new
	// build: at most 60-41 = 19 of them.
	if dirty > 19 {
		t.Fatalf("rebuild did not happen: dirty=%d", dirty)
	}
	// Updated vectors found at the new location.
	res, _ := col.Search(SearchRequest{Vector: far, K: 1, Ef: 100})
	if len(res.Hits) == 0 || res.Hits[0].ID >= 60 {
		t.Fatalf("updated vector not found: %v", res.Hits)
	}
}

func TestInsertAfterIndexBypassesStaleIndex(t *testing.T) {
	col, ds := productCollection(t, 100)
	if err := col.CreateIndex("hnsw", nil); err != nil {
		t.Fatal(err)
	}
	// New insert not covered by the index must still be findable: the
	// executor scans the rows past the index's coverage beside its probe.
	probe := make([]float32, 16)
	for i := range probe {
		probe[i] = -50
	}
	id, err := col.Insert(probe, map[string]any{"price": 1.0, "cat": 1, "brand": "acme"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := col.Search(SearchRequest{Vector: probe, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || res.Hits[0].ID != id {
		t.Fatalf("fresh insert not found: %v", res.Hits)
	}
	_ = ds
}

func TestMultiVectorSearch(t *testing.T) {
	db := New()
	col, err := db.CreateCollection("faces", Schema{
		Dim:        8,
		Attributes: map[string]string{"person": "int"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(300, 8, 6, 0.3, 5)
	for i := 0; i < 300; i++ {
		if _, err := col.Insert(ds.Row(i), map[string]any{"person": i / 3}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := col.Search(SearchRequest{
		Vectors:      [][]float32{ds.Row(30), ds.Row(31)},
		K:            3,
		EntityColumn: "person",
		Aggregator:   "min",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 3 || res.Hits[0].ID != 10 {
		t.Fatalf("multi-vector hits = %v", res.Hits)
	}
	// Errors.
	if _, err := col.Search(SearchRequest{Vectors: [][]float32{ds.Row(0)}, K: 3}); err == nil {
		t.Fatal("want entity-column error")
	}
	if _, err := col.Search(SearchRequest{Vectors: [][]float32{ds.Row(0)}, K: 3, EntityColumn: "person", Aggregator: "zz"}); err == nil {
		t.Fatal("want aggregator error")
	}
}

// TestWeightedSumNeedsOneWeightPerVector: a weighted_sum query with
// missing or short weights is an error, with or without an index,
// instead of a panic in the aggregation; with one weight per query
// vector it answers.
func TestWeightedSumNeedsOneWeightPerVector(t *testing.T) {
	db := New()
	col, err := db.CreateCollection("faces", Schema{Dim: 8, Attributes: map[string]string{"person": "int"}})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(300, 8, 6, 0.3, 5)
	for i := 0; i < 300; i++ {
		if _, err := col.Insert(ds.Row(i), map[string]any{"person": i / 3}); err != nil {
			t.Fatal(err)
		}
	}
	req := SearchRequest{Vectors: [][]float32{ds.Row(30), ds.Row(31)}, K: 3, EntityColumn: "person", Aggregator: "weighted_sum"}
	for _, kind := range []string{"", "hnsw"} {
		if kind != "" {
			if err := col.CreateIndex(kind, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, weights := range [][]float32{nil, {1}, {1, 2, 3}} {
			req.Weights = weights
			if _, err := col.Search(req); err == nil || !strings.Contains(err.Error(), "one weight per query vector") {
				t.Fatalf("index %q, weights %v: error %v, want one weight per query vector", kind, weights, err)
			}
		}
		req.Weights = []float32{0.5, 0.5}
		res, err := col.Search(req)
		if err != nil || len(res.Hits) != 3 || res.Hits[0].ID != 10 {
			t.Fatalf("index %q: weighted_sum hits %v, %v", kind, res.Hits, err)
		}
	}
}

func TestSearchRangeAndBatchAndIterator(t *testing.T) {
	col, ds := productCollection(t, 400)
	rng, err := col.Search(SearchRequest{Vector: ds.Row(0), K: 400, Radius: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range rng.Hits {
		if h.ID == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("range search missing self")
	}
	qs := ds.Queries(4, 0.05, 7)
	batch, err := col.SearchBatch(qs, SearchRequest{K: 5, Ef: 100})
	if err != nil || len(batch) != 4 {
		t.Fatalf("batch: %v %d", err, len(batch))
	}
	page1, err := col.Search(SearchRequest{Vector: ds.Row(0), K: 10})
	if err != nil || len(page1.Hits) != 10 {
		t.Fatalf("page 1: %v %v", err, page1.Hits)
	}
	page2, err := col.Search(SearchRequest{Vector: ds.Row(0), K: 10, After: &page1.Hits[9]})
	if err != nil || len(page2.Hits) != 10 || !(page2.Hits[0].Dist > page1.Hits[9].Dist || page2.Hits[0].Dist == page1.Hits[9].Dist && page2.Hits[0].ID > page1.Hits[9].ID) {
		t.Fatalf("page 2 after %v: %v %v", page1.Hits[9], err, page2.Hits)
	}
}

func TestSearchContext(t *testing.T) {
	col, ds := productCollection(t, 200)
	// A live context behaves exactly like Search.
	res, err := col.SearchContext(context.Background(), SearchRequest{Vector: ds.Row(3), K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 5 || res.Hits[0].ID != 3 {
		t.Fatalf("hits = %v", res.Hits)
	}
	// A dead context aborts before any work happens.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := col.SearchContext(ctx, SearchRequest{Vector: ds.Row(3), K: 5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search = %v", err)
	}
}

func TestSearchBatchPartialFailure(t *testing.T) {
	col, ds := productCollection(t, 300)
	qs := ds.Queries(3, 0.05, 5)
	qs[1] = []float32{1, 2} // wrong dimensionality
	batch, err := col.SearchBatch(qs, SearchRequest{K: 5, Ef: 100})
	if err == nil {
		t.Fatal("want an error for the malformed query")
	}
	if !strings.Contains(err.Error(), "query 1") {
		t.Fatalf("error should name the failing query: %v", err)
	}
	if len(batch) != 3 {
		t.Fatalf("batch length %d, want 3", len(batch))
	}
	if batch[1] != nil {
		t.Fatal("failed query should be a nil slot")
	}
	if len(batch[0]) == 0 || len(batch[2]) == 0 {
		t.Fatal("healthy queries lost their results")
	}
}
