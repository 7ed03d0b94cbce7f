package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/filter"
	"vdbms/internal/obs"
	"vdbms/internal/vec"
)

// predicateCorpus is the differential corpus: rows with an int and a
// string attribute derived from the row id, so a test can check any hit
// against its predicate from the id alone.
func predicateCorpus(t testing.TB, n, dim int) (*Collection, *dataset.Dataset) {
	t.Helper()
	c, err := NewCollection("diff", Schema{
		Dim:        dim,
		Attributes: map[string]filter.Kind{"g": filter.Int64, "tag": filter.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(n, dim, 6, 0.5, 17)
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), corpusAttrs(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return c, ds
}

func corpusAttrs(id int64) map[string]filter.Value {
	return map[string]filter.Value{"g": filter.IntV(id * 7 % 100), "tag": filter.StringV(fmt.Sprintf("t%d", id%3))}
}

// corpusFilters is g < 30 AND tag IN (t0, t2); corpusMatch is the
// predicate decided from the row id.
var corpusFilters = []Filter{
	{Column: "g", Op: "<", Value: 30},
	{Column: "tag", Op: "in", Set: []any{"t0", "t2"}},
}

func corpusMatch(id int64) bool { return id*7%100 < 30 && id%3 != 1 }

// referenceTopK filters, then brute-forces: every admitted live row is
// scored with the scalar distance, ordered by (distance, id) and cut at
// k.
func referenceTopK(ds *dataset.Dataset, n int, q []float32, k int, admit func(id int64) bool) []Result {
	var all []Result
	for id := int64(0); id < int64(n); id++ {
		if admit(id) {
			all = append(all, Result{ID: id, Dist: vec.SquaredL2(q, ds.Row(int(id)))})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TestForcedPlansMatchReference: under every forced plan, with and
// without a deletion mask, and after
// a Compact dropped the deleted rows (ids no longer rows, the index
// rebuilt over the survivors), the hits (ids, order, distances) are
// byte-identical to a reference that filters and then brute-forces.
// The installed indexes are exact (a flat index, whose 3 000-row scan
// splits across the pool's workers on two or more CPUs; ivfflat probing
// every list), so every plan has an exact reference: post_filter's is the
// unfiltered top alpha*k, filtered. The tail subtests repeat this on
// snapshots whose index covers only a prefix of the rows; the extended
// subtest on snapshots whose ivfflat index filed every insert past its
// build.
func TestForcedPlansMatchReference(t *testing.T) {
	for _, kind := range []string{"ivfflat", "hnsw"} {
		t.Run("tail/"+kind, func(t *testing.T) { forcedPlansWithTail(t, kind, false) })
	}
	t.Run("extended/ivfflat", func(t *testing.T) { forcedPlansWithTail(t, "ivfflat", true) })
	const n, dim, k, alpha = 3000, 16, 10, 8
	for _, ix := range []struct {
		kind   string
		opts   map[string]int
		nprobe int
	}{{"flat", nil, 0}, {"ivfflat", map[string]int{"nlist": 8}, 8}, {"", nil, 0}} {
		c, ds := predicateCorpus(t, n, dim)
		if ix.kind != "" {
			if err := c.CreateIndex(ix.kind, ix.opts); err != nil {
				t.Fatal(err)
			}
		}
		dead := map[int64]bool{}
		for _, phase := range []string{"intact", "deletes", "compacted"} {
			switch phase {
			case "deletes":
				for id := int64(0); id < n; id += 5 {
					if err := c.Delete(id); err != nil {
						t.Fatal(err)
					}
					dead[id] = true
				}
			case "compacted":
				if err := c.Compact(); err != nil {
					t.Fatal(err)
				}
				c.WaitForIndex()
				if kind, covered, _ := c.IndexInfo(); kind != ix.kind || (kind != "" && covered != n-len(dead)) {
					t.Fatalf("compacted: index %q covers %d rows, want %q over %d", kind, covered, ix.kind, n-len(dead))
				}
			}
			live := func(id int64) bool { return !dead[id] }
			for qi, q := range ds.Queries(6, 0.1, 23) {
				exact := referenceTopK(ds, n, q, k, func(id int64) bool { return live(id) && corpusMatch(id) })
				var post []Result
				for _, r := range referenceTopK(ds, n, q, alpha*k, live) {
					if corpusMatch(r.ID) && len(post) < k {
						post = append(post, r)
					}
				}
				for _, plan := range []string{"brute_force", "pre_filter", "single_stage", "post_filter"} {
					want := exact
					if plan == "post_filter" {
						want = post
					}
					res, err := c.Search(bg, SearchRequest{Vector: q, K: k, Filters: corpusFilters, Policy: "plan:" + plan,
						Alpha: alpha, NProbe: ix.nprobe})
					if err != nil {
						t.Fatal(err)
					}
					if got := res.Hits; fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("index %q %s query %d plan %s:\n got %v\nwant %v",
							ix.kind, phase, qi, plan, got, want)
					}
				}
			}
		}
	}
}

// forcedPlansWithTail runs every forced plan, filtered and unfiltered,
// on snapshots with rows inserted past the
// index build: those inserts, then deletes among both the built rows
// and them, then a Compact (the index rebuilt over the survivors, ids
// no longer rows) followed by fresh inserts with deletes of their own.
// Unless filed, each build is followed by an update that rewrites a row
// with its own vector: no answer changes, but an ivfflat index files no
// insert until its next build, so the inserts form a tail the executor
// scans. Filed, the ivfflat index serves every row and no tail is left.
// An ivfflat index probing every list is exact, so its hits are
// byte-identical to the reference. hnsw is approximate: brute_force is
// byte-identical, and every other plan returns live, admitted ids at
// their exact distances in (dist, id) order, among them every reference
// hit in the tail — the tail is scanned exactly, so none may be lost to
// the merge.
func forcedPlansWithTail(t *testing.T, kind string, filed bool) {
	const n0, n, extra, dim, k, alpha = 2400, 3000, 300, 16, 10, 8
	opts, nprobe, ef := map[string]int{"nlist": 8}, 8, 0
	if kind == "hnsw" {
		opts, nprobe, ef = map[string]int{"m": 8}, 0, 48
	}
	c, err := NewCollection("tail", Schema{
		Dim:             dim,
		Attributes:      map[string]filter.Kind{"g": filter.Int64, "tag": filter.String},
		RebuildFraction: 100, // no staleness rebuild: the tail stays
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(n+extra, dim, 6, 0.5, 17)
	insert := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := c.Insert(ds.Row(i), corpusAttrs(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	stale := func() {
		if !filed {
			if err := c.UpdateVector(1, ds.Row(1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(0, n0)
	if err := c.CreateIndex(kind, opts); err != nil {
		t.Fatal(err)
	}
	stale()
	insert(n0, n)
	dead := map[int64]bool{}
	del := func(lo, hi, step int) {
		for id := lo; id < hi; id += step {
			if err := c.Delete(int64(id)); err != nil {
				t.Fatal(err)
			}
			dead[int64(id)] = true
		}
	}
	ids, tailFrom := n, int64(n0) // ids issued; first id of the tail
	for _, phase := range []string{"tail", "deletes", "compacted"} {
		switch phase {
		case "deletes":
			del(0, n, 5)
		case "compacted":
			if err := c.Compact(); err != nil {
				t.Fatal(err)
			}
			c.WaitForIndex()
			stale()
			insert(n, n+extra)
			del(n+1, n+extra, 7)
			ids, tailFrom = n+extra, n
		}
		s := c.snap.Load()
		want := s.rows - (ids - int(tailFrom))
		if filed {
			want = s.rows
		}
		if got := s.env.ANN.Size(); got != want || !filed && got >= s.rows {
			t.Fatalf("%s: index covers %d of %d rows, want %d", phase, got, s.rows, want)
		}
		live := func(id int64) bool { return !dead[id] }
		for _, fs := range [][]Filter{corpusFilters, nil} {
			admit := func(id int64) bool { return live(id) && (fs == nil || corpusMatch(id)) }
			for qi, q := range ds.Queries(6, 0.1, 23) {
				exact := referenceTopK(ds, ids, q, k, admit)
				var post []Result
				for _, r := range referenceTopK(ds, ids, q, alpha*k, live) {
					if admit(r.ID) && len(post) < k {
						post = append(post, r)
					}
				}
				for _, plan := range []string{"brute_force", "pre_filter", "single_stage", "post_filter"} {
					want := exact
					if plan == "post_filter" {
						want = post
					}
					res, err := c.Search(bg, SearchRequest{Vector: q, K: k, Filters: fs, Policy: "plan:" + plan,
						Alpha: alpha, NProbe: nprobe, Ef: ef})
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s %s filtered=%v query %d plan %s", kind, phase, fs != nil, qi, plan)
					if kind == "ivfflat" || plan == "brute_force" {
						if fmt.Sprint(res.Hits) != fmt.Sprint(want) {
							t.Fatalf("%s:\n got %v\nwant %v", label, res.Hits, want)
						}
						continue
					}
					checkTailHits(t, label, ds, q, res.Hits, want, admit, tailFrom)
				}
			}
		}
	}
}

// checkTailHits holds approximate hits to what a probe plus an exact
// tail scan guarantees: admitted ids at their exact distances, in
// (dist, id) order, at most k of them, and every hit of want at or past
// tailFrom among them.
func checkTailHits(t *testing.T, label string, ds *dataset.Dataset, q []float32, got, want []Result, admit func(int64) bool, tailFrom int64) {
	t.Helper()
	if len(got) > len(want) && len(want) > 0 {
		t.Fatalf("%s: %d hits, want at most %d", label, len(got), len(want))
	}
	in := map[int64]bool{}
	for i, r := range got {
		if !admit(r.ID) {
			t.Fatalf("%s: hit %d id %d is deleted or not admitted", label, i, r.ID)
		}
		if d := vec.SquaredL2(q, ds.Row(int(r.ID))); math.Float32bits(d) != math.Float32bits(r.Dist) {
			t.Fatalf("%s: hit %d id %d at %v, exact distance %v", label, i, r.ID, r.Dist, d)
		}
		if i > 0 && (r.Dist < got[i-1].Dist || r.Dist == got[i-1].Dist && r.ID <= got[i-1].ID) {
			t.Fatalf("%s: hits out of (dist, id) order at %d: %v", label, i, got)
		}
		in[r.ID] = true
	}
	for _, r := range want {
		if r.ID >= tailFrom && !in[r.ID] {
			t.Fatalf("%s: tail hit %v missing:\n got %v\nwant %v", label, r, got, want)
		}
	}
}

// TestExhaustivePlansRecordFilterStage: every exhaustive operator
// builds its allowlist under the "filter" stage — one histogram
// observation and one span carrying the predicate's survivor count —
// and none of it is booked inside index_probe; the survivor count is
// the popcount before deletions, and it is what feeds the selectivity
// histogram.
func TestExhaustivePlansRecordFilterStage(t *testing.T) {
	const n = 1200
	c, ds := predicateCorpus(t, n, 8)
	if err := c.CreateIndex("flat", nil); err != nil {
		t.Fatal(err)
	}
	survivors := int64(0)
	for id := int64(0); id < n; id++ {
		if corpusMatch(id) {
			survivors++
		}
	}
	for id := int64(0); id < 100; id++ { // deletions must not change the measurement
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	stage := obs.SearchStageSeconds.With("filter")
	recorded := c.Stats().Selectivity["g"].Count
	check := func(name string, run func() (*obs.SpanReport, error)) {
		t.Helper()
		before := stage.Count()
		report, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if got := stage.Count() - before; got != 1 {
			t.Fatalf("%s: %d filter-stage observations, want 1", name, got)
		}
		var filterSpan *obs.SpanReport
		for i, ch := range report.Children {
			if ch.Stage == "filter" {
				filterSpan = &report.Children[i]
			}
			if ch.Stage == "index_probe" {
				for _, g := range ch.Children {
					if g.Stage == "filter" {
						t.Fatalf("%s: filter span nested inside %s", name, ch.Stage)
					}
				}
			}
		}
		if filterSpan == nil || filterSpan.Annotations["survivors"] != survivors {
			t.Fatalf("%s: filter span %+v, want survivors=%d", name, filterSpan, survivors)
		}
		recorded++
		sel := c.Stats().Selectivity["g"]
		if sel.Count != recorded || math.Abs(sel.Mean-float64(survivors)/n) > 1e-12 {
			t.Fatalf("%s: selectivity histogram count=%d mean=%v, want %d/%v", name, sel.Count, sel.Mean, recorded, float64(survivors)/n)
		}
	}
	for _, plan := range []string{"brute_force", "pre_filter"} {
		check(plan, func() (*obs.SpanReport, error) {
			res, err := c.Search(bg, SearchRequest{Vector: ds.Row(3), K: 5, Filters: corpusFilters, Policy: "plan:" + plan, Trace: true})
			return res.Trace, err
		})
	}
	check("range", func() (*obs.SpanReport, error) {
		res, err := c.Search(bg, SearchRequest{Vector: ds.Row(3), K: n, Radius: 4, Filters: corpusFilters, Trace: true})
		return res.Trace, err
	})
}

// TestPredicateReadPathRace runs predicate searches, range queries and
// paged queries while a writer appends rows (reallocating every attribute
// column many times over), deletes and compacts (replacing every column
// and renumbering the rows under the ids). Run under -race: the readers
// evaluate predicates on plain slices captured at compile time, with
// no lock between them and the appending writer. Every hit must
// satisfy its predicate, lie below the row count, and not have been
// deleted before its query began.
func TestPredicateReadPathRace(t *testing.T) {
	const preload, dim, k = 400, 8, 10
	c, ds := predicateCorpus(t, preload, dim)
	if err := c.CreateIndex("hnsw", map[string]int{"m": 6}); err != nil {
		t.Fatal(err)
	}
	delOrder := make([]int64, 0, preload/4)
	delPos := map[int64]int{}
	for id := int64(1); id < preload; id += 4 {
		delPos[id] = len(delOrder)
		delOrder = append(delOrder, id)
	}
	var delDone atomic.Int64 // delOrder[:delDone] have been deleted
	// The writer does a fixed amount of work — enough appends to
	// reallocate each column several times — and the readers run until
	// it is done, so the two overlap for the whole test without the
	// collection (and every exhaustive query) growing without bound.
	const appends = 4000
	var writerDone atomic.Bool
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		defer writerDone.Store(true)
		for i := 0; i < appends; i++ {
			id := int64(c.Rows())
			if _, err := c.Insert(ds.Row(i%preload), corpusAttrs(id)); err != nil {
				t.Error(err)
				return
			}
			if nd := delDone.Load(); i%8 == 0 && int(nd) < len(delOrder) {
				if err := c.Delete(delOrder[nd]); err != nil {
					t.Error(err)
					return
				}
				delDone.Add(1)
			}
			if i%500 == 499 {
				if err := c.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	check := func(what string, ids []int64, deletedBefore int64) {
		rows := int64(c.Rows())
		for _, id := range ids {
			switch pos, wasDeleted := delPos[id]; {
			case !corpusMatch(id):
				t.Errorf("%s returned row %d, which fails its predicate", what, id)
			case id >= rows:
				t.Errorf("%s returned row %d of %d", what, id, rows)
			case wasDeleted && int64(pos) < deletedBefore:
				t.Errorf("%s returned row %d, deleted before the query began", what, id)
			}
		}
	}
	ids := func(rs []Result) []int64 {
		out := make([]int64, len(rs))
		for i, r := range rs {
			out[i] = r.ID
		}
		return out
	}
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			policies := []string{"", "plan:brute_force", "plan:pre_filter", "plan:single_stage", "plan:post_filter"}
			for i := 0; i < 20 || !writerDone.Load(); i++ {
				q := ds.Row((i*7 + r) % preload)
				nd := delDone.Load()
				res, err := c.Search(bg, SearchRequest{Vector: q, K: k, Filters: corpusFilters, Policy: policies[i%len(policies)]})
				if err != nil {
					t.Error(err)
					return
				}
				check("search", ids(res.Hits), nd)

				nd = delDone.Load()
				rng, err := c.Search(bg, SearchRequest{Vector: q, K: c.Rows(), Radius: 1.5, Filters: corpusFilters})
				if err != nil {
					t.Error(err)
					return
				}
				check("range", ids(rng.Hits), nd)

				nd = delDone.Load()
				var after *Result
				for page := 0; page < 2; page++ {
					res, err := c.Search(bg, SearchRequest{Vector: q, K: 7, Ef: 32, Filters: corpusFilters, After: after})
					if err != nil {
						t.Error(err)
						return
					}
					check("page", ids(res.Hits), nd)
					if len(res.Hits) == 0 {
						break
					}
					after = &res.Hits[len(res.Hits)-1]
				}
			}
		}(r)
	}
	readers.Wait()
	writer.Wait()
	c.WaitForIndex()
}
