package executor

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"vdbms/internal/bitset"
	"vdbms/internal/dataset"
	"vdbms/internal/filter"
	"vdbms/internal/index"
	"vdbms/internal/index/hnsw"
	"vdbms/internal/planner"
	"vdbms/internal/stats"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// buildEnv creates a clustered collection with an HNSW index and an
// integer attribute "cat" uniform in [0, 100).
func buildEnv(t *testing.T, n int) (*Env, *dataset.Dataset) {
	t.Helper()
	return buildTailEnv(t, n, n)
}

// buildTailEnv is buildEnv with the index built over the first covered
// rows only: the rows past them are the unindexed tail.
func buildTailEnv(t *testing.T, n, covered int) (*Env, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Clustered(n, 16, 8, 0.4, 1)
	h, err := hnsw.Build(ds.Data, covered, ds.Dim, hnsw.Config{M: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return envOver(t, ds, h), ds
}

// envOver is an Env over ds with ann as its index and an integer
// attribute "cat" = row % 100.
func envOver(t *testing.T, ds *dataset.Dataset, ann index.Index) *Env {
	t.Helper()
	n := ds.Count
	attrs := filter.NewTable()
	if _, err := attrs.AddColumn("cat", filter.Int64); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := attrs.AppendRow(map[string]filter.Value{"cat": filter.IntV(int64(i % 100))}); err != nil {
			t.Fatal(err)
		}
	}
	env, err := NewEnv(ds.Data, ds.Count, ds.Dim, nil, ann, attrs)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func catLt(x int64) []filter.Predicate {
	return []filter.Predicate{{Column: "cat", Op: filter.Lt, Value: filter.IntV(x)}}
}

func TestAllPlansRespectPredicate(t *testing.T) {
	env, ds := buildEnv(t, 2000)
	q := ds.Queries(1, 0.05, 2)[0]
	preds := catLt(50) // 50% selectivity
	for _, p := range planner.Enumerate(true, 4) {
		got, err := env.Execute(p, q, 10, preds, Options{Ef: 100})
		if err != nil {
			t.Fatalf("%v: %v", p.Kind, err)
		}
		if len(got) == 0 {
			t.Fatalf("%v returned nothing", p.Kind)
		}
		for _, r := range got {
			if r.ID%100 >= 50 {
				t.Fatalf("%v violated predicate: id %d", p.Kind, r.ID)
			}
		}
	}
}

func TestPlansAgreeAtFullSelectivity(t *testing.T) {
	env, ds := buildEnv(t, 1000)
	q := ds.Queries(1, 0.05, 3)[0]
	truthRes, err := env.Execute(planner.Plan{Kind: planner.BruteForce}, q, 5, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range planner.Enumerate(true, 4)[1:] {
		got, err := env.Execute(p, q, 5, nil, Options{Ef: 200})
		if err != nil {
			t.Fatal(err)
		}
		// ANN plans should find mostly the same ids at generous ef.
		want := map[int64]bool{}
		for _, r := range truthRes {
			want[r.ID] = true
		}
		hits := 0
		for _, r := range got {
			if want[r.ID] {
				hits++
			}
		}
		if hits < 4 {
			t.Fatalf("%v found %d/5 of exact results", p.Kind, hits)
		}
	}
}

func TestPreFilterTinySurvivorSetIsExact(t *testing.T) {
	env, ds := buildEnv(t, 2000)
	q := ds.Queries(1, 0.05, 4)[0]
	preds := catLt(1) // 1% selectivity => 20 survivors
	got, err := env.Execute(planner.Plan{Kind: planner.PreFilter}, q, 10, preds, Options{Ef: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("pre-filter returned %d of 10", len(got))
	}
	// Compare against brute force over the same predicate: identical.
	exact, _ := env.Execute(planner.Plan{Kind: planner.BruteForce}, q, 10, preds, Options{})
	for i := range got {
		if got[i].ID != exact[i].ID {
			t.Fatalf("pre-filter deviates from exact on tiny survivor set: %v vs %v", got, exact)
		}
	}
}

func TestPostFilterShortfall(t *testing.T) {
	env, ds := buildEnv(t, 2000)
	q := ds.Queries(1, 0.05, 5)[0]
	preds := catLt(2) // 2% selectivity
	// alpha=1: expect far fewer than k survivors.
	got, err := env.Execute(planner.Plan{Kind: planner.PostFilter, Alpha: 1}, q, 20, preds, Options{Ef: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= 20 {
		t.Fatalf("expected shortfall, got %d results", len(got))
	}
	// Large alpha fills the result set better.
	more, err := env.Execute(planner.Plan{Kind: planner.PostFilter, Alpha: 50}, q, 20, preds, Options{Ef: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(more) <= len(got) {
		t.Fatalf("alpha=50 (%d results) should beat alpha=1 (%d)", len(more), len(got))
	}
}

func TestExecuteValidation(t *testing.T) {
	env, ds := buildEnv(t, 200)
	q := ds.Row(0)
	if _, err := env.Execute(planner.Plan{}, q, 0, nil, Options{}); err != index.ErrBadK {
		t.Fatal("want ErrBadK")
	}
	if _, err := env.Execute(planner.Plan{}, []float32{1}, 5, nil, Options{}); err == nil {
		t.Fatal("want dim error")
	}
	if _, err := env.Execute(planner.Plan{}, q, 5, []filter.Predicate{{Column: "nope"}}, Options{}); err == nil {
		t.Fatal("want unknown-column error")
	}
	if _, err := env.Execute(planner.Plan{Kind: planner.Kind(9)}, q, 5, nil, Options{}); err == nil {
		t.Fatal("want unknown-plan error")
	}
	noAttrs, err := NewEnv(ds.Data, ds.Count, ds.Dim, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noAttrs.Execute(planner.Plan{}, q, 5, catLt(1), Options{}); err == nil {
		t.Fatal("want no-attribute-table error")
	}
}

func TestSearchPolicies(t *testing.T) {
	env, ds := buildEnv(t, 1500)
	q := ds.Queries(1, 0.05, 6)[0]
	if res, plan, err := env.Search(q, 5, catLt(50), Options{Ef: 100}, ""); err != nil || len(res) == 0 {
		t.Fatalf("optimizer (plan %v): %d hits, err %v", plan.Kind, len(res), err)
	}
	// A forced plan is parsed by the caller and run with Execute; the
	// executor's own planning takes no policy but "".
	for _, policy := range []string{"plan:brute_force", "plan:pre_filter", "plan:post_filter", "plan:single_stage"} {
		plan, forced, err := planner.ParsePolicy(policy, 0)
		if err != nil || !forced || plan.Kind.String() != strings.TrimPrefix(policy, "plan:") {
			t.Fatalf("ParsePolicy(%q) = %v, %v, %v", policy, plan, forced, err)
		}
		res, err := env.Execute(plan, q, 5, catLt(50), Options{Ef: 100})
		if err != nil || len(res) == 0 {
			t.Fatalf("policy %q: %d hits, err %v", policy, len(res), err)
		}
		if _, _, err := env.Search(q, 5, nil, Options{}, policy); !errors.Is(err, planner.ErrPolicy) {
			t.Fatalf("Search with policy %q: err = %v, want planner.ErrPolicy", policy, err)
		}
	}
	for _, policy := range []string{"bogus", "cost", "rule", "adaptive", "vearch", "weaviate", "euclid", "analyticdb-v", "milvus", "qdrant", "plan:", "plan:bogus"} {
		if _, _, err := planner.ParsePolicy(policy, 0); !errors.Is(err, planner.ErrPolicy) {
			t.Fatalf("ParsePolicy(%q): err = %v, want planner.ErrPolicy", policy, err)
		}
		if _, _, err := env.Search(q, 5, nil, Options{}, policy); !errors.Is(err, planner.ErrPolicy) {
			t.Fatalf("Search with policy %q: err = %v, want planner.ErrPolicy", policy, err)
		}
	}
}

// TestStandaloneEnvMeasuresItself: an Env with no Stats attached keeps
// a tracker of its own, so the queries it serves warm its optimizer
// exactly as a collection's tracker warms the collection's: the same
// executions over the same index measure the same probe cost, and the
// plan span's inputs turn from default to measured.
func TestStandaloneEnvMeasuresItself(t *testing.T) {
	standalone, ds := buildEnv(t, 1500)
	owned, err := NewEnv(ds.Data, ds.Count, ds.Dim, nil, standalone.ANN, standalone.Attrs)
	if err != nil {
		t.Fatal(err)
	}
	owned.Stats = stats.New("owned")
	planTags := func() map[string]string {
		t.Helper()
		var rec Record
		if _, err := standalone.Plan(5, catLt(10), "", &rec); err != nil {
			t.Fatal(err)
		}
		return rec.Trace("plan", 0).Children[0].Tags
	}
	if tags := planTags(); tags["index_comps_source"] != "default" || tags["attr_cost_source"] != "default" {
		t.Fatalf("cold plan inputs: %v", tags)
	}
	for _, q := range ds.Queries(20, 0.05, 9) {
		for _, env := range []*Env{standalone, owned} {
			for _, kind := range []planner.Kind{planner.SingleStage, planner.BruteForce} {
				if _, err := env.Execute(planner.Plan{Kind: kind}, q, 5, catLt(10), Options{Ef: 32}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	got, want := standalone.observed(), owned.observed()
	if got.ProbeCount != want.ProbeCount || got.MeanProbeComps != want.MeanProbeComps || got.AttrObservations != want.AttrObservations {
		t.Fatalf("standalone measured %+v, owned %+v", got, want)
	}
	if tags := planTags(); tags["index_comps_source"] != "measured" || tags["attr_cost_source"] != "measured" {
		t.Fatalf("warm plan inputs: %v", tags)
	}
}

// TestEveryANNOperatorServesTail: with the index over the first 1 500
// of 2 000 rows, every ANN operator — each forced plan, the planned
// search, the batch, a page past a cursor, multi-vector candidate generation
// and the recall loop's replay — finds a tail row queried by its own
// vector at distance 0, and none returns it once the deletion mask or
// the predicate hides it.
func TestEveryANNOperatorServesTail(t *testing.T) {
	env, ds := buildTailEnv(t, 2000, 1500)
	const row = 1805 // cat 5
	q := ds.Row(row)
	owner := make([]int64, ds.Count)
	for i := range owner {
		owner[i] = int64(i)
	}
	m := NewEntityMap(owner)
	del := bitset.New(ds.Count)
	del.Set(row)
	for _, hide := range []struct {
		name  string
		del   *bitset.Bitset
		preds []filter.Predicate
	}{{"live", nil, nil}, {"admitted", nil, catLt(10)}, {"deleted", del, nil}, {"filtered out", nil, catLt(5)}} {
		opts := Options{Ef: 32, Deleted: hide.del}
		top := map[string][]topk.Result{}
		for _, p := range planner.Enumerate(true, 4)[1:] {
			res, err := env.Execute(p, q, 3, hide.preds, opts)
			if err != nil {
				t.Fatal(err)
			}
			top[p.Kind.String()] = res
		}
		var err error
		if top["planned"], _, err = env.Search(q, 3, hide.preds, opts, ""); err != nil {
			t.Fatal(err)
		}
		batch, _, err := env.SearchBatch(planner.Plan{Kind: planner.SingleStage}, [][]float32{q}, 3, hide.preds, opts)
		if err != nil {
			t.Fatal(err)
		}
		top["batch"] = batch[0]
		// A page past a cursor ahead of every row deepens the ANN probe.
		paged := opts
		paged.Window.After = &topk.Result{ID: -1, Dist: float32(math.Inf(-1))}
		if top["paged"], err = env.Execute(planner.Plan{Kind: planner.SingleStage}, q, 3, hide.preds, paged); err != nil {
			t.Fatal(err)
		}
		if top["multi_vector"], err = env.MultiVectorANN(m, vec.AggMin, [][]float32{q}, nil, 3, 0, hide.preds, opts); err != nil {
			t.Fatal(err)
		}
		if top["replay"], _, err = env.ReplayANN(q, 3, 32, 0, hide.preds, hide.del); err != nil {
			t.Fatal(err)
		}
		for op, res := range top {
			found := len(res) > 0 && res[0].ID == row && res[0].Dist == 0
			if want := hide.del == nil && (hide.preds == nil || hide.name == "admitted"); found != want {
				t.Fatalf("%s row, %s: hits %v, want row %d first: %v", hide.name, op, res, row, want)
			}
		}
	}
}

// TestUnfilteredSearchKeepsEf: with no predicate the optimizer's
// post-filter asks the index for k, not alpha*k, so it probes at the
// query's own ef — the same comps as forcing single_stage.
func TestUnfilteredSearchKeepsEf(t *testing.T) {
	env, ds := buildEnv(t, 2000)
	qs := ds.Queries(50, 0.05, 8)
	// comps runs every query under forced (the optimizer when nil) and
	// returns the mean probe comps and the last plan run.
	comps := func(forced *planner.Plan) (float64, planner.Kind) {
		env.Stats = stats.New("ef")
		var kind planner.Kind
		for _, q := range qs {
			var err error
			if forced != nil {
				kind = forced.Kind
				_, err = env.Execute(*forced, q, 10, nil, Options{Ef: 16})
			} else {
				var p planner.Plan
				_, p, err = env.Search(q, 10, nil, Options{Ef: 16}, "")
				kind = p.Kind
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		mean, n := env.Stats.MeanProbeComps()
		if n != int64(len(qs)) {
			t.Fatalf("plan %v: %d probes recorded, want %d", kind, n, len(qs))
		}
		return mean, kind
	}
	got, kind := comps(nil)
	want, _ := comps(&planner.Plan{Kind: planner.SingleStage})
	if kind != planner.PostFilter {
		t.Fatalf("unfiltered plan = %v, want post_filter", kind)
	}
	if got != want {
		t.Fatalf("unfiltered search at ef=16: %.1f comps/query, plan:single_stage %.1f", got, want)
	}
}

func TestSearchBatchMatchesSingles(t *testing.T) {
	env, ds := buildEnv(t, 1000)
	qs := ds.Queries(16, 0.05, 7)
	plan := planner.Plan{Kind: planner.SingleStage}
	batch, _, err := env.SearchBatch(plan, qs, 5, nil, Options{Ef: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		single, err := env.Execute(plan, q, 5, nil, Options{Ef: 100})
		if err != nil {
			t.Fatal(err)
		}
		if len(single) != len(batch[i]) {
			t.Fatalf("query %d: batch %d vs single %d", i, len(batch[i]), len(single))
		}
		for j := range single {
			if single[j].ID != batch[i][j].ID {
				t.Fatalf("query %d result %d differs", i, j)
			}
		}
	}
}

func TestSearchBatchPropagatesErrors(t *testing.T) {
	env, _ := buildEnv(t, 100)
	if _, _, err := env.SearchBatch(planner.Plan{}, [][]float32{{1}}, 5, nil, Options{}); err == nil {
		t.Fatal("want dim error from batch")
	}
}

// rangeOf answers a range query as the engine does: the exact scan,
// windowed at radius, keeping every row inside.
func rangeOf(env *Env, q []float32, radius float32, preds []filter.Predicate) ([]topk.Result, error) {
	return env.Execute(planner.Plan{Kind: planner.BruteForce}, q, env.N, preds, Options{Window: topk.Window{Radius: radius}})
}

func TestSearchRange(t *testing.T) {
	env, ds := buildEnv(t, 500)
	q := ds.Row(0)
	got, err := rangeOf(env, q, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i, r := range got {
		if r.ID == 0 {
			found = true
		}
		if r.Dist > 0.5 {
			t.Fatalf("range violated: %v", r)
		}
		if i > 0 && !topk.Less(got[i-1], r) {
			t.Fatalf("range hits out of (dist, id) order at %d: %v", i, got)
		}
	}
	if !found {
		t.Fatal("query point itself not in range result")
	}
	// With predicate.
	got, err = rangeOf(env, q, 10, catLt(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.ID%100 >= 10 {
			t.Fatalf("range predicate violated: %d", r.ID)
		}
	}
}

func TestMultiVectorExactAndANN(t *testing.T) {
	env, ds := buildEnv(t, 900)
	// Group rows into entities of 3 consecutive vectors.
	owner := make([]int64, ds.Count)
	for i := range owner {
		owner[i] = int64(i / 3)
	}
	m := NewEntityMap(owner)
	if len(m.Entities()) != 300 {
		t.Fatalf("entities = %d", len(m.Entities()))
	}
	if m.Owner(5) != 1 || len(m.Members(1)) != 3 {
		t.Fatal("entity map wrong")
	}
	queries := [][]float32{ds.Row(30), ds.Row(31)}
	exact, err := env.MultiVectorExact(m, vec.AggMin, queries, nil, 5, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exact[0].ID != 10 { // rows 30,31 belong to entity 10; min distance 0
		t.Fatalf("exact top entity = %d", exact[0].ID)
	}
	approx, err := env.MultiVectorANN(m, vec.AggMin, queries, nil, 5, 20, nil, Options{Ef: 100})
	if err != nil {
		t.Fatal(err)
	}
	if approx[0].ID != 10 {
		t.Fatalf("ann top entity = %d", approx[0].ID)
	}
	// Overlap between exact and approx top-5 should be high.
	want := map[int64]bool{}
	for _, r := range exact {
		want[r.ID] = true
	}
	hits := 0
	for _, r := range approx {
		if want[r.ID] {
			hits++
		}
	}
	if hits < 3 {
		t.Fatalf("multi-vector ANN overlap = %d/5", hits)
	}
}

func TestMultiVectorValidation(t *testing.T) {
	env, ds := buildEnv(t, 90)
	owner := make([]int64, ds.Count)
	m := NewEntityMap(owner)
	if _, err := env.MultiVectorExact(m, vec.AggMin, [][]float32{{1}}, nil, 5, nil, Options{}); err == nil {
		t.Fatal("want dim error")
	}
	if _, err := env.MultiVectorExact(m, vec.AggMin, nil, nil, 0, nil, Options{}); err == nil {
		t.Fatal("want bad-k error")
	}
	if _, err := env.MultiVectorANN(m, vec.AggMin, nil, nil, 0, 0, nil, Options{}); err == nil {
		t.Fatal("want bad-k error")
	}
}

// pageAll pages through every hit of a query at page size k, each page
// the next k past the previous page's last hit, until a page comes back
// short. It fails on a page out of (dist, id) order or not strictly past
// its cursor.
func pageAll(t *testing.T, env *Env, p planner.Plan, q []float32, k int, preds []filter.Predicate, opts Options) []topk.Result {
	t.Helper()
	var all []topk.Result
	for {
		page, err := env.Execute(p, q, k, preds, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range page {
			if after := opts.Window.After; after != nil && !topk.Less(*after, r) {
				t.Fatalf("page size %d: hit %v not past the cursor %v", k, r, *after)
			}
			if n := len(all); n > 0 && !topk.Less(all[n-1], r) {
				t.Fatalf("page size %d: hit %v after %v goes backwards", k, r, all[n-1])
			}
			all = append(all, r)
		}
		if len(page) < k {
			return all
		}
		opts.Window.After = &page[len(page)-1]
	}
}

// TestIteratorPagesExact: paging the exact scan at page sizes 1, 7 and
// 10 reproduces the full exact (dist, id) order, with no duplicate and
// no gap — also where ties (duplicated rows) span a page boundary.
func TestIteratorPagesExact(t *testing.T) {
	for _, ties := range []bool{false, true} {
		ds := dataset.Clustered(400, 8, 4, 0.4, 9)
		for i := 0; ties && i+1 < ds.Count; i += 3 {
			copy(ds.Row(i+1), ds.Row(i)) // pairs of equal distance
		}
		env, err := NewEnv(ds.Data, ds.Count, ds.Dim, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		q := ds.Queries(1, 0.05, 10)[0]
		want, err := env.Flat.Search(q, ds.Count, index.Params{})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 7, 10} {
			got := pageAll(t, env, planner.Plan{Kind: planner.BruteForce}, q, k, nil, Options{})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("ties=%v page size %d: %d hits, want the exact order of all %d", ties, k, len(got), len(want))
			}
		}
	}
}

// TestIteratorANNPagination: pages of an ANN probe past a cursor never
// repeat an id or go backwards, the first one matches a direct top-10
// search closely, and a deepened probe feeds the cost model nothing.
func TestIteratorANNPagination(t *testing.T) {
	env, ds := buildEnv(t, 1200)
	env.Stats = stats.New("paging")
	q := ds.Queries(1, 0.05, 11)[0]
	ss := planner.Plan{Kind: planner.SingleStage}
	page1, err := env.Execute(ss, q, 10, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	page2, err := env.Execute(ss, q, 10, nil, Options{Window: topk.Window{After: &page1[len(page1)-1]}})
	if err != nil {
		t.Fatal(err)
	}
	if len(page1) != 10 || len(page2) != 10 {
		t.Fatalf("pages = %d, %d", len(page1), len(page2))
	}
	ids := map[int64]bool{}
	for _, r := range append(page1, page2...) {
		if ids[r.ID] {
			t.Fatalf("duplicate across pages: %d", r.ID)
		}
		ids[r.ID] = true
	}
	if !topk.Less(page1[9], page2[0]) {
		t.Fatalf("page 2 starts at %v, before page 1's last %v", page2[0], page1[9])
	}
	// First page should match a direct top-10 search closely.
	direct, _ := env.Execute(ss, q, 10, nil, Options{Ef: 64})
	want := map[int64]bool{}
	for _, r := range direct {
		want[r.ID] = true
	}
	hits := 0
	for _, r := range page1 {
		if want[r.ID] {
			hits++
		}
	}
	if hits < 7 {
		t.Fatalf("first page overlap = %d/10", hits)
	}
	// A deepened probe runs at widths the planner never plans: only the
	// first page and the direct search teach it a probe cost.
	if _, n := env.Stats.MeanProbeComps(); n != 2 {
		t.Fatalf("%d probes recorded as probe cost, want 2", n)
	}
	// Paged to the end, the ANN stream holds each id once, in order.
	all := pageAll(t, env, ss, q, 50, nil, Options{})
	if len(all) < 1000 {
		t.Fatalf("paged ANN stream reached %d of 1200 rows", len(all))
	}
}

// TestIteratorValidation: a windowed query is checked as any other —
// its dimension, its columns and its page size k — and a radius is
// refused by every plan that probes the ANN index.
func TestIteratorValidation(t *testing.T) {
	env, ds := buildEnv(t, 100)
	bf := planner.Plan{Kind: planner.BruteForce}
	cursor := Options{Window: topk.Window{After: &topk.Result{ID: 3, Dist: 1}}}
	if _, err := env.Execute(bf, []float32{1}, 5, nil, cursor); err == nil {
		t.Fatal("want dim error")
	}
	if _, err := env.Execute(bf, ds.Row(0), 5, []filter.Predicate{{Column: "nope"}}, cursor); err == nil {
		t.Fatal("want column error")
	}
	if _, err := env.Execute(bf, ds.Row(0), 0, nil, cursor); !errors.Is(err, index.ErrBadK) {
		t.Fatalf("page size 0: %v, want ErrBadK", err)
	}
	radius := Options{Window: topk.Window{Radius: 1}}
	if _, err := env.Execute(planner.Plan{Kind: planner.SingleStage}, ds.Row(0), 5, nil, radius); err == nil {
		t.Fatal("a radius on the ANN probe must be refused")
	}
}

func TestIteratorWithPredicate(t *testing.T) {
	env, ds := buildEnv(t, 600)
	all := pageAll(t, env, planner.Plan{Kind: planner.SingleStage}, ds.Row(0), 25, catLt(20), Options{})
	for _, r := range all {
		if r.ID%100 >= 20 {
			t.Fatalf("predicate violated: %d", r.ID)
		}
	}
	if len(all) == 0 {
		t.Fatal("predicated pages returned nothing")
	}
}

// TestSearchBatchPartialResults: one bad query must not discard the
// whole batch. Failures come back as nil slots plus an error naming
// the failing index; the other queries' results survive.
func TestSearchBatchPartialResults(t *testing.T) {
	env, ds := buildEnv(t, 500)
	qs := ds.Queries(4, 0.05, 3)
	qs[2] = []float32{1} // wrong dimensionality
	plan := planner.Plan{Kind: planner.SingleStage}
	batch, _, err := env.SearchBatch(plan, qs, 5, nil, Options{Ef: 100})
	if err == nil {
		t.Fatal("want an error for the bad query")
	}
	if !strings.Contains(err.Error(), "query 2") {
		t.Fatalf("error should name the failing index: %v", err)
	}
	if len(batch) != len(qs) {
		t.Fatalf("batch length %d, want %d", len(batch), len(qs))
	}
	if batch[2] != nil {
		t.Fatal("failed query should have a nil slot")
	}
	for _, i := range []int{0, 1, 3} {
		if len(batch[i]) == 0 {
			t.Fatalf("query %d lost its results", i)
		}
		single, err := env.Execute(plan, qs[i], 5, nil, Options{Ef: 100})
		if err != nil {
			t.Fatal(err)
		}
		for j := range single {
			if single[j].ID != batch[i][j].ID {
				t.Fatalf("query %d result %d differs from single execution", i, j)
			}
		}
	}
}
