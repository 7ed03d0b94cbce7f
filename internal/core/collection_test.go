package core

import (
	"context"
	"errors"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/filter"
	"vdbms/internal/obs"
	"vdbms/internal/planner"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// bg is the context of the test searches nothing cancels.
var bg = context.Background()

func newCol(t *testing.T, n int) (*Collection, *dataset.Dataset) {
	t.Helper()
	c, err := NewCollection("t", Schema{
		Dim:    8,
		Metric: vec.L2,
		Attributes: map[string]filter.Kind{
			"g": filter.Int64,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(n, 8, 4, 0.4, 1)
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), map[string]filter.Value{"g": filter.IntV(int64(i % 10))}); err != nil {
			t.Fatal(err)
		}
	}
	return c, ds
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewCollection("x", Schema{Dim: 0}); err == nil {
		t.Fatal("want dim error")
	}
	if _, err := NewCollection("x", Schema{Dim: 2, Metric: vec.Mahalanobis}); err == nil {
		t.Fatal("want metric error")
	}
	if _, err := NewCollection("x", Schema{Dim: 2, Attributes: map[string]filter.Kind{"": filter.Int64}}); err != nil {
		// empty name is allowed by filter.Table; just ensure no panic
		t.Logf("empty column name: %v", err)
	}
}

func TestInsertValidation(t *testing.T) {
	c, _ := newCol(t, 10)
	if _, err := c.Insert([]float32{1}, nil); err == nil {
		t.Fatal("want dim error")
	}
	// Wrong attribute arity.
	if _, err := c.Insert(make([]float32, 8), map[string]filter.Value{}); err == nil {
		t.Fatal("want arity error")
	}
	if c.Rows() != 10 || c.Len() != 10 || c.Dim() != 8 || c.Name() != "t" {
		t.Fatal("metadata wrong")
	}
}

func TestGetUpdateDeleteLifecycle(t *testing.T) {
	c, ds := newCol(t, 20)
	v, attrs, err := c.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != ds.Row(3)[0] || attrs["g"].I != 3 {
		t.Fatal("Get wrong")
	}
	if err := c.UpdateVector(3, make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	v, _, _ = c.Get(3)
	if v[0] != 0 {
		t.Fatal("update not visible")
	}
	if err := c.UpdateVector(3, []float32{1}); err == nil {
		t.Fatal("want dim error")
	}
	if err := c.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(3); err == nil {
		t.Fatal("double delete should error")
	}
	if err := c.Delete(99); err == nil {
		t.Fatal("out of range delete should error")
	}
	if _, _, err := c.Get(3); err == nil {
		t.Fatal("deleted Get should error")
	}
	if c.Len() != 19 {
		t.Fatal("live count wrong")
	}
}

func TestCreateIndexEmptyCollection(t *testing.T) {
	c, err := NewCollection("e", Schema{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex("hnsw", nil); err == nil {
		t.Fatal("want empty-collection error")
	}
	if _, err := c.Search(bg, SearchRequest{Vector: make([]float32, 4), K: 1}); err == nil {
		t.Fatal("want empty-collection search error")
	}
}

func TestSearchPlansAndPolicy(t *testing.T) {
	c, ds := newCol(t, 500)
	if err := c.CreateIndex("hnsw", map[string]int{"m": 8}); err != nil {
		t.Fatal(err)
	}
	filters := []Filter{{Column: "g", Op: "<", Value: 5}}
	for _, policy := range []string{"", "plan:pre_filter", "plan:post_filter", "plan:single_stage", "plan:brute_force"} {
		res, err := c.Search(bg, SearchRequest{Vector: ds.Row(0), K: 5, Filters: filters, Policy: policy, Ef: 100})
		if err != nil {
			t.Fatalf("%q: %v", policy, err)
		}
		if len(res.Hits) == 0 {
			t.Fatalf("%q (plan %v): empty", policy, res.Plan)
		}
		for _, r := range res.Hits {
			if r.ID%10 >= 5 {
				t.Fatalf("%q violated predicate", policy)
			}
		}
	}
	if plan, _, _ := planner.ParsePolicy("plan:post_filter", 0); plan.Alpha != 4 {
		t.Fatalf("forced post_filter alpha = %d, want 4", plan.Alpha)
	}
	for _, policy := range []string{"zz", "plan:zz", "cost", "rule", "adaptive", "vearch", "weaviate", "euclid", "analyticdb-v", "milvus", "qdrant"} {
		if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(0), K: 5, Filters: filters, Policy: policy}); !errors.Is(err, planner.ErrPolicy) {
			t.Fatalf("Search policy %q: err = %v, want planner.ErrPolicy", policy, err)
		}
		if _, err := c.SearchBatch(bg, [][]float32{ds.Row(0)}, SearchRequest{K: 5, Filters: filters, Policy: policy}); !errors.Is(err, planner.ErrPolicy) {
			t.Fatalf("SearchBatch policy %q: err = %v, want planner.ErrPolicy", policy, err)
		}
	}
}

func TestRebuildPolicy(t *testing.T) {
	c, _ := newCol(t, 100)
	if err := c.CreateIndex("hnsw", nil); err != nil {
		t.Fatal(err)
	}
	// Below threshold: no background rebuild starts.
	for i := 0; i < 10; i++ {
		c.UpdateVector(int64(i), make([]float32, 8)) //nolint:errcheck
	}
	c.WaitForIndex()
	if _, _, dirty := c.IndexInfo(); dirty != 10 {
		t.Fatalf("dirty = %d, rebuild should not have run", dirty)
	}
	// Cross threshold (default 0.2 of 100 rows): the write that makes
	// dirty exceed 20 triggers a background rebuild. Updates issued
	// while the build runs stay dirty against the new index, so after
	// quiescing, dirty is the (small) post-trigger tail, not 25.
	for i := 10; i < 25; i++ {
		c.UpdateVector(int64(i), make([]float32, 8)) //nolint:errcheck
	}
	if _, err := c.Search(bg, SearchRequest{Vector: make([]float32, 8), K: 1}); err != nil {
		t.Fatal(err)
	}
	c.WaitForIndex()
	kind, covered, dirty, building := c.IndexStatus()
	if building || kind != "hnsw" {
		t.Fatalf("status after wait: kind=%q building=%v", kind, building)
	}
	if covered != c.Rows() {
		t.Fatalf("covered = %d, rows = %d", covered, c.Rows())
	}
	if dirty > 4 {
		t.Fatalf("dirty = %d after background rebuild (trigger fired at 21, tail is at most 4)", dirty)
	}
	c.DropIndex()
	if kind, _, _ := c.IndexInfo(); kind != "" {
		t.Fatal("drop failed")
	}
}

func TestMultiVectorEntityColumnValidation(t *testing.T) {
	c, ds := newCol(t, 60)
	// Missing entity column name.
	if _, err := c.Search(bg, SearchRequest{Vectors: [][]float32{ds.Row(0)}, K: 2}); err == nil {
		t.Fatal("want entity-column error")
	}
	// Unknown column.
	if _, err := c.Search(bg, SearchRequest{Vectors: [][]float32{ds.Row(0)}, K: 2, EntityColumn: "zz"}); err == nil {
		t.Fatal("want unknown-column error")
	}
	// Works with the int column.
	res, err := c.Search(bg, SearchRequest{Vectors: [][]float32{ds.Row(0)}, K: 2, EntityColumn: "g", Aggregator: "min"})
	if err != nil || len(res.Hits) != 2 {
		t.Fatalf("multi-vector: %v %v", res.Hits, err)
	}
	// Compacted back to the row count the entity map was cached at, the
	// grouping follows the new column: the rows inserted after the
	// Compact belong to entity 77.
	for id := int64(0); id < 10; id++ {
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Insert(ds.Row(i), map[string]filter.Value{"g": filter.IntV(77)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err = c.Search(bg, SearchRequest{Vectors: [][]float32{ds.Row(0)}, K: 1, EntityColumn: "g", Aggregator: "min"})
	if err != nil || len(res.Hits) != 1 || res.Hits[0].ID != 77 || res.Hits[0].Dist != 0 {
		t.Fatalf("multi-vector after compact: %v %v, want entity 77 at 0", res.Hits, err)
	}
	// Non-int entity column rejected.
	c2, err := NewCollection("s", Schema{Dim: 4, Attributes: map[string]filter.Kind{"name": filter.String}})
	if err != nil {
		t.Fatal(err)
	}
	c2.Insert(make([]float32, 4), map[string]filter.Value{"name": filter.StringV("x")}) //nolint:errcheck
	if _, err := c2.Search(bg, SearchRequest{Vectors: [][]float32{make([]float32, 4)}, K: 1, EntityColumn: "name"}); err == nil {
		t.Fatal("want type error")
	}
}

func TestSearchRangeRespectsDeletes(t *testing.T) {
	c, ds := newCol(t, 50)
	c.Delete(7) //nolint:errcheck
	out, err := c.Search(bg, SearchRequest{Vector: ds.Row(7), K: 50, Radius: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Hits
	for _, r := range res {
		if r.ID == 7 {
			t.Fatal("deleted id in range result")
		}
	}
}

func TestBatchAndIterator(t *testing.T) {
	c, ds := newCol(t, 200)
	if err := c.CreateIndex("hnsw", nil); err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(3, 0.05, 5)
	batch, err := c.SearchBatch(bg, qs, SearchRequest{K: 4, Ef: 64})
	if err != nil || len(batch) != 3 || len(batch[0]) != 4 {
		t.Fatalf("batch: %v %v", batch, err)
	}
	first, err := c.Search(bg, SearchRequest{Vector: ds.Row(0), K: 5})
	if err != nil || len(first.Hits) != 5 {
		t.Fatalf("page 1: %v %v", first.Hits, err)
	}
	next, err := c.Search(bg, SearchRequest{Vector: ds.Row(0), K: 5, After: &first.Hits[4]})
	if err != nil || len(next.Hits) != 5 || !topk.Less(first.Hits[4], next.Hits[0]) {
		t.Fatalf("page 2 after %v: %v %v", first.Hits[4], next.Hits, err)
	}
}

func TestPlanForcedBruteForceMatchesExact(t *testing.T) {
	c, ds := newCol(t, 300)
	if err := c.CreateIndex("ivfflat", map[string]int{"nlist": 8}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Search(bg, SearchRequest{Vector: ds.Row(42), K: 1, Policy: "plan:brute_force"})
	if err != nil || res.Plan != planner.BruteForce.String() {
		t.Fatalf("%v %v", res.Plan, err)
	}
	if res.Hits[0].ID != 42 || res.Hits[0].Dist != 0 {
		t.Fatalf("res = %v", res.Hits)
	}
}

// TestBatchQueriesAreCounted: each query of a batch is the search it
// answers — the search, plan, parameter-source and latency counters and
// the collection's query count move by as much for a batch of 8 as for
// 8 single searches.
func TestBatchQueriesAreCounted(t *testing.T) {
	c, ds := newCol(t, 400)
	if err := c.CreateIndex("hnsw", nil); err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(8, 0.05, 6)
	req := SearchRequest{K: 5, Ef: 32, Filters: []Filter{{Column: "g", Op: "<", Value: 5}}, Policy: "plan:single_stage"}
	counters := func() [6]int64 {
		return [6]int64{
			obs.SearchTotal.Value(), obs.SearchErrors.Value(),
			obs.SearchPlans.With("single_stage").Value(), obs.PlanParamSource.With(SourceExplicit).Value(),
			obs.SearchLatency.With(c.Name()).Count(), c.Stats().Queries,
		}
	}
	delta := func(run func()) (d [6]int64) {
		before := counters()
		run()
		after := counters()
		for i := range d {
			d[i] = after[i] - before[i]
		}
		return d
	}
	singles := delta(func() {
		for _, q := range qs {
			one := req
			one.Vector = q
			if _, err := c.Search(bg, one); err != nil {
				t.Fatal(err)
			}
		}
	})
	batch := delta(func() {
		if _, err := c.SearchBatch(bg, qs, req); err != nil {
			t.Fatal(err)
		}
	})
	if singles != [6]int64{8, 0, 8, 8, 8, 8} || batch != singles {
		t.Fatalf("search, errors, plan, param source, latency, queries: 8 singles moved %v, a batch of 8 %v", singles, batch)
	}
}
