package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"vdbms/internal/dataset"
	"vdbms/internal/topk"
)

// TestWindowValidation: a Radius or After the engine cannot serve is an
// error wrapping ErrWindow, from Search and from SearchBatch alike.
func TestWindowValidation(t *testing.T) {
	c, ds := newCol(t, 100)
	q := ds.Row(0)
	nan := float32(math.NaN())
	for _, tc := range []struct {
		name string
		req  SearchRequest
	}{
		{"negative radius", SearchRequest{Vector: q, K: 5, Radius: -1}},
		{"NaN radius", SearchRequest{Vector: q, K: 5, Radius: nan}},
		{"infinite radius", SearchRequest{Vector: q, K: 5, Radius: float32(math.Inf(1))}},
		{"negative infinite radius", SearchRequest{Vector: q, K: 5, Radius: float32(math.Inf(-1))}},
		{"NaN cursor distance", SearchRequest{Vector: q, K: 5, After: &Result{ID: 1, Dist: nan}}},
		{"negative cursor id", SearchRequest{Vector: q, K: 5, After: &Result{ID: -1, Dist: 1}}},
		{"radius under pre_filter", SearchRequest{Vector: q, K: 5, Radius: 1, Policy: "plan:pre_filter"}},
		{"radius under post_filter", SearchRequest{Vector: q, K: 5, Radius: 1, Policy: "plan:post_filter"}},
		{"radius under single_stage", SearchRequest{Vector: q, K: 5, Radius: 1, Policy: "plan:single_stage"}},
		{"multi-vector radius", SearchRequest{Vectors: [][]float32{q}, K: 5, EntityColumn: "g", Radius: 1}},
		{"multi-vector cursor", SearchRequest{Vectors: [][]float32{q}, K: 5, EntityColumn: "g", After: &Result{ID: 1}}},
	} {
		if _, err := c.Search(bg, tc.req); !errors.Is(err, ErrWindow) {
			t.Errorf("%s: err %v, want ErrWindow", tc.name, err)
		}
	}
	for _, req := range []SearchRequest{{K: 5, Radius: 1}, {K: 5, After: &Result{ID: 1}}} {
		if _, err := c.SearchBatch(bg, [][]float32{q}, req); !errors.Is(err, ErrWindow) {
			t.Errorf("batch %+v: err %v, want ErrWindow", req, err)
		}
	}
	// Served: a radius under the optimizer or forced brute_force, and
	// cursors at either end of the order.
	for _, req := range []SearchRequest{
		{Vector: q, K: 5, Radius: 1},
		{Vector: q, K: 5, Radius: 1, Policy: "plan:brute_force"},
		{Vector: q, K: 5, After: &Result{ID: 0, Dist: float32(math.Inf(-1))}},
		{Vector: q, K: 5, After: &Result{ID: 1 << 40, Dist: float32(math.Inf(1))}},
	} {
		if _, err := c.Search(bg, req); err != nil {
			t.Errorf("%+v: %v", req, err)
		}
	}
}

// TestRangeBoundary: a range keeps a row exactly at the radius and
// drops it once the radius is the float32 just below its distance; the
// range runs as brute_force even where the optimizer would probe the
// index.
func TestRangeBoundary(t *testing.T) {
	c, ds := newCol(t, 500)
	if err := c.CreateIndex("hnsw", nil); err != nil {
		t.Fatal(err)
	}
	q := ds.Row(4)
	all, err := c.Search(bg, SearchRequest{Vector: q, K: 500, Policy: "plan:brute_force"})
	if err != nil {
		t.Fatal(err)
	}
	edge := all.Hits[20]
	for _, tc := range []struct {
		radius float32
		want   []Result
	}{
		{edge.Dist, keepWithin(all.Hits, edge.Dist)},
		{math.Nextafter32(edge.Dist, 0), keepWithin(all.Hits, math.Nextafter32(edge.Dist, 0))},
	} {
		res, err := c.Search(bg, SearchRequest{Vector: q, K: 500, Radius: tc.radius})
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan != "brute_force" || fmt.Sprint(res.Hits) != fmt.Sprint(tc.want) {
			t.Fatalf("radius %v: plan %s, hits %v, want %v", tc.radius, res.Plan, res.Hits, tc.want)
		}
		if at := len(res.Hits) > 20 && res.Hits[20] == edge; at != (tc.radius == edge.Dist) {
			t.Fatalf("radius %v: row %d at %v kept = %v", tc.radius, edge.ID, edge.Dist, at)
		}
	}
}

func keepWithin(hits []Result, radius float32) []Result {
	var out []Result
	for _, h := range hits {
		if h.Dist <= radius {
			out = append(out, h)
		}
	}
	return out
}

// tieCollection is 300 rows of 8-d, every third row a copy of the one
// before it, so ties in distance span page boundaries.
func tieCollection(t *testing.T) (*Collection, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Clustered(300, 8, 4, 0.4, 5)
	for i := 0; i+1 < ds.Count; i += 3 {
		copy(ds.Row(i+1), ds.Row(i))
	}
	c, err := NewCollection("pages", Schema{Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Count; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	return c, ds
}

// pages reads req page by page, each past the last hit of the one
// before, until a short page, and fails on a hit repeated or out of
// (dist, id) order.
func pages(t *testing.T, c *Collection, req SearchRequest, limit int) []Result {
	t.Helper()
	var all []Result
	for p := 0; p < limit; p++ {
		res, err := c.Search(bg, req)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range res.Hits {
			if n := len(all); n > 0 && !topk.Less(all[n-1], h) {
				t.Fatalf("k=%d: hit %v after %v repeats or goes backwards", req.K, h, all[n-1])
			}
			all = append(all, h)
		}
		if len(res.Hits) < req.K {
			break
		}
		req.After = &res.Hits[len(res.Hits)-1]
	}
	return all
}

// TestPagingReproducesExactOrder: on a static collection with ties
// across page boundaries, paging the exact plan at page sizes 1, 7 and
// 10 reproduces the full exact (dist, id) order with no duplicate and
// no gap; a page past a cursor whose row was deleted, or deleted and
// compacted away, after its page was read starts at the next row of
// the order; and pages of the ANN index never repeat an id or go
// backwards.
func TestPagingReproducesExactOrder(t *testing.T) {
	c, ds := tieCollection(t)
	q := ds.Queries(1, 0.05, 6)[0]
	exact := func() []Result {
		t.Helper()
		res, err := c.Search(bg, SearchRequest{Vector: q, K: ds.Count, Policy: "plan:brute_force"})
		if err != nil {
			t.Fatal(err)
		}
		return res.Hits
	}
	full := exact()
	for _, k := range []int{1, 7, 10} {
		if got := pages(t, c, SearchRequest{Vector: q, K: k}, ds.Count+1); fmt.Sprint(got) != fmt.Sprint(full) {
			t.Fatalf("k=%d: paged %d hits, want the exact order of %d", k, len(got), len(full))
		}
	}

	page := func(after *Result) []Result {
		t.Helper()
		res, err := c.Search(bg, SearchRequest{Vector: q, K: 10, After: after})
		if err != nil {
			t.Fatal(err)
		}
		return res.Hits
	}
	p1 := page(nil)
	if err := c.Delete(p1[9].ID); err != nil {
		t.Fatal(err)
	}
	if got := page(&p1[9]); fmt.Sprint(got) != fmt.Sprint(full[10:20]) {
		t.Fatalf("after deleted cursor %v: %v, want %v", p1[9], got, full[10:20])
	}
	p2 := page(&p1[9])
	// Deleting the first row too shifts every row under its id.
	for _, id := range []int64{p2[9].ID, full[0].ID} {
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := page(&p2[9]); fmt.Sprint(got) != fmt.Sprint(full[20:30]) {
		t.Fatalf("after compacted cursor %v: %v, want %v", p2[9], got, full[20:30])
	}

	if err := c.CreateIndex("hnsw", map[string]int{"m": 8}); err != nil {
		t.Fatal(err)
	}
	if got := pages(t, c, SearchRequest{Vector: q, K: 10, Policy: "plan:single_stage"}, 40); len(got) < 200 {
		t.Fatalf("ANN pages reached %d of %d rows", len(got), c.Len())
	}
}

// TestPageCursorHoldsNoPin: a page cursor is a value, not a reader pin.
// While one is held between pages of a 20 000 × 128 hnsw collection,
// 200 UpdateVectors patch the column in place and allocate under 1 MiB
// between them; a pin held across them would make each one copy the
// 10 MB column.
func TestPageCursorHoldsNoPin(t *testing.T) {
	const n, dim = 20000, 128
	ds := dataset.Clustered(n, dim, 16, 0.3, 7)
	c, err := NewCollection("pin", Schema{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("hnsw", map[string]int{"m": 8}); err != nil {
		t.Fatal(err)
	}
	c.WaitForIndex()
	q := ds.Queries(1, 0.05, 8)[0]
	res, err := c.Search(bg, SearchRequest{Vector: q, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	cursor := res.Hits[len(res.Hits)-1]

	column := unsafe.SliceData(c.data)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 200; i++ {
		if err := c.UpdateVector(int64(i*97%n), ds.Row((i+1)*89%n)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if unsafe.SliceData(c.data) != column {
		t.Fatal("an update copied the column: a reader pin outlived its request")
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("200 updates allocated %d bytes", alloc)
	if alloc >= 1<<20 {
		t.Fatalf("200 updates allocated %d bytes, want < 1 MiB", alloc)
	}
	next, err := c.Search(bg, SearchRequest{Vector: q, K: 10, After: &cursor})
	if err != nil || len(next.Hits) != 10 || !topk.Less(cursor, next.Hits[0]) {
		t.Fatalf("page after %v: %v %v", cursor, next.Hits, err)
	}
}
