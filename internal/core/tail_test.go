package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/filter"
	"vdbms/internal/vec"
)

// TestAuditRecallOnTailHeavySnapshot: the recall loop audits what the
// serving path answered on a snapshot whose index covers half the rows.
// A degraded ivfflat (nprobe 1 of 64 lists) over the first 6 000 rows
// serves 6 000 more as its tail — an update right after the build, which
// rewrites a row with its own vector, stops the index filing them; the
// pass's recall of the served queries lies within ±0.01 of their recall
// against brute force over all 12 000 rows.
func TestAuditRecallOnTailHeavySnapshot(t *testing.T) {
	const n0, n, d, k, nq = 6000, 12000, 8, 10, 100
	ds := dataset.Uniform(n, d, 41)
	c, err := NewCollection("tailaudit", Schema{Dim: d, RebuildFraction: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i == n0 {
			if err := c.CreateIndex("ivfflat", map[string]int{"nlist": 64}); err != nil {
				t.Fatal(err)
			}
			if err := c.UpdateVector(0, ds.Row(0)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, covered, _ := c.IndexInfo(); covered != n0 {
		t.Fatalf("index covers %d rows, want %d", covered, n0)
	}
	if s := c.snap.Load(); s.env.ANN.Size() >= s.rows {
		t.Fatalf("index serves %d of %d rows: no tail", s.env.ANN.Size(), s.rows)
	}
	c.EnableRecall(RecallConfig{ReservoirSize: 2 * nq})
	defer c.DisableRecall()

	queries := ds.Queries(nq, 0.1, 43)
	truth := dataset.GroundTruth(vec.Distance(vec.L2), ds, queries, k)
	var trueSum float64
	tailHits := 0
	for i, q := range queries {
		res, err := c.Search(bg, SearchRequest{Vector: q, K: k, NProbe: 1, Policy: "plan:single_stage"})
		if err != nil {
			t.Fatal(err)
		}
		inTruth := map[int64]bool{}
		for _, r := range truth[i] {
			inTruth[r.ID] = true
		}
		for _, r := range res.Hits {
			if inTruth[r.ID] {
				trueSum++
			}
			if r.ID >= n0 {
				tailHits++
			}
		}
	}
	trueRecall := trueSum / (nq * k)
	rep, err := c.RecallNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != nq || rep.Outcome != "ok" {
		t.Fatalf("pass %+v, want ok over %d samples", rep, nq)
	}
	// Half the answers come from the exactly scanned tail, and the
	// prefix probe is degraded: the audit has something to measure.
	if tailHits < nq*k/4 || trueRecall >= 0.95 {
		t.Fatalf("%d of %d hits from the tail, true recall %.4f: snapshot not tail-heavy and degraded", tailHits, nq*k, trueRecall)
	}
	if diff := math.Abs(rep.Recall - trueRecall); diff > 0.01 {
		t.Fatalf("audited recall %.4f vs true recall %.4f: |diff| %.4f > 0.01", rep.Recall, trueRecall, diff)
	}
}

// TestWriteWhileSearchHNSW races searches against a writer on an hnsw
// collection whose index trails the inserts (writeWhileSearch): each
// insert read back while the index does not cover it yet must come from
// the tail. Run under -race.
func TestWriteWhileSearchHNSW(t *testing.T) {
	served, tail := writeWhileSearch(t, "hnsw", map[string]int{"m": 8}, SearchRequest{Ef: 32}, false)
	if tail < 100 {
		t.Fatalf("%d inserts read back while in the tail (%d served by the index): too few to show anything", tail, served)
	}
}

// TestWriteWhileSearchIVF is TestWriteWhileSearchHNSW on ivfflat, which
// files every insert into its lists: each one is served through the
// index the moment Insert returns, across the rebuilds the staleness
// rule starts meanwhile, and no tail is left. The index probes every
// list, so every read-back is exact. Run under -race.
func TestWriteWhileSearchIVF(t *testing.T) {
	const nlist = 16
	served, tail := writeWhileSearch(t, "ivfflat", map[string]int{"nlist": nlist}, SearchRequest{NProbe: nlist}, true)
	if tail != 0 || served < 1000 {
		t.Fatalf("%d inserts read back from the index and %d from the tail, want every one from the index", served, tail)
	}
}

// writeWhileSearch races searches against a writer on a collection
// indexed by kind with opts: the writer inserts 2 000 rows onto 2 000
// indexed ones (the staleness rule rebuilds the index in the background
// meanwhile, and inserts reallocate the column under it), deletes every
// tenth new row, and reads each insert back at once, under the knobs of
// req. A read-back must find the row at distance 0 when the row was in
// the tail — the tail is scanned exactly — and, when exact, also when
// the index served it. Two readers search with and without a predicate
// throughout: every hit is an issued id at its exact distance, in (dist,
// id) order, and no id deleted before the search began comes back. It
// returns how many inserts were read back while the index served them
// and how many while they were in its tail; once the builds settle, the
// index serves every row a filing family has seen inserted.
func writeWhileSearch(t *testing.T, kind string, opts map[string]int, req SearchRequest, exact bool) (served, tail int) {
	t.Helper()
	const n0, n, dim, k = 2000, 4000, 16, 10
	ds := dataset.Clustered(n, dim, 8, 0.4, 47)
	c, err := NewCollection("wws", Schema{Dim: dim, Attributes: map[string]filter.Kind{"g": filter.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	attrs := func(i int) map[string]filter.Value { return map[string]filter.Value{"g": filter.IntV(int64(i % 10))} }
	for i := 0; i < n0; i++ {
		if _, err := c.Insert(ds.Row(i), attrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex(kind, opts); err != nil {
		t.Fatal(err)
	}

	var delMu sync.Mutex
	deletedAt := map[int64]int64{} // id → position in the delete order
	var deletes atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	var searches atomic.Int64
	defer func() { done.Store(true); wg.Wait() }()
	errs := make(chan error, 3)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
		done.Store(true)
	}
	qs := ds.Queries(32, 0.1, 53)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				q := qs[(i+r)%len(qs)]
				req := req
				req.Vector, req.K = q, k
				if i%2 == 1 {
					req.Filters = []Filter{{Column: "g", Op: "<", Value: 5}}
				}
				before := deletes.Load()
				res, err := c.Search(bg, req)
				if err != nil {
					fail("reader %d: %v", r, err)
					return
				}
				searches.Add(1)
				rows := int64(c.Rows())
				delMu.Lock()
				for j, h := range res.Hits {
					pos, dead := deletedAt[h.ID]
					switch {
					case h.ID < 0 || h.ID >= rows:
						fail("reader %d: id %d never issued", r, h.ID)
					case dead && pos < before:
						fail("reader %d: id %d deleted before the search began", r, h.ID)
					case h.Dist != vec.SquaredL2(q, ds.Row(int(h.ID))):
						fail("reader %d: id %d at %v, exact %v", r, h.ID, h.Dist, vec.SquaredL2(q, ds.Row(int(h.ID))))
					case req.Filters != nil && h.ID%10 >= 5:
						fail("reader %d: id %d fails g < 5", r, h.ID)
					case j > 0 && (h.Dist < res.Hits[j-1].Dist || h.Dist == res.Hits[j-1].Dist && h.ID <= res.Hits[j-1].ID):
						fail("reader %d: hits out of order: %v", r, res.Hits)
					}
				}
				delMu.Unlock()
			}
		}(r)
	}
	for i := n0; i < n && !done.Load(); i++ {
		id, err := c.Insert(ds.Row(i), attrs(i))
		if err != nil {
			t.Fatal(err)
		}
		back := req
		back.Vector, back.K = ds.Row(i), 1
		res, err := c.Search(bg, back)
		if err != nil {
			t.Fatal(err)
		}
		// Coverage only grows here, so a row past it now was in the
		// tail when the search ran, and one below it was served then.
		inTail := false
		if _, covered, _ := c.IndexInfo(); int64(covered) <= id {
			inTail = true
			tail++
		} else {
			served++
		}
		if (inTail || exact) && (len(res.Hits) != 1 || res.Hits[0].ID != id || res.Hits[0].Dist != 0) {
			t.Fatalf("insert %d (in the tail: %v) not read back: %v", id, inTail, res.Hits)
		}
		if i%10 == 0 {
			delMu.Lock()
			deletedAt[id] = deletes.Load()
			delMu.Unlock()
			if err := c.Delete(id); err != nil {
				t.Fatal(err)
			}
			deletes.Add(1)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	c.WaitForIndex()
	if searches.Load() < 100 {
		t.Fatalf("%d concurrent searches: too few to show anything", searches.Load())
	}
	if s := c.snap.Load(); tail == 0 && s.env.ANN.Size() != s.rows {
		t.Fatalf("index serves %d of %d rows after its builds settled", s.env.ANN.Size(), s.rows)
	}
	return served, tail
}

// TestInsertReallocRebindsIndex: an insert that reallocates the heap
// column moves an index no vector update has made stale onto the new
// column (index.Remappable), so the superseded array is not pinned; a
// delete, which leaves the column's content as it was, does not stop
// that. Once an update has landed the index keeps the column it was
// built over until the next build. Searches answer the same throughout.
func TestInsertReallocRebindsIndex(t *testing.T) {
	const n, dim = 500, 8
	ds := dataset.Clustered(4*n, dim, 4, 0.4, 59)
	c, err := NewCollection("rebind", Schema{Dim: dim, RebuildFraction: 100})
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
	// insertUntilRealloc appends rows until the column moves and reports
	// whether the installed index moved with it.
	next := n
	insertUntilRealloc := func() bool {
		t.Helper()
		c.mu.Lock()
		ann, data := c.ann, c.data
		c.mu.Unlock()
		for ; next < 4*n; next++ {
			if _, err := c.Insert(ds.Row(next), nil); err != nil {
				t.Fatal(err)
			}
			c.mu.Lock()
			moved, rebound := &c.data[0] != &data[0], c.ann != ann
			c.mu.Unlock()
			if moved {
				next++
				return rebound
			}
		}
		t.Fatal("the column never reallocated")
		return false
	}
	if !insertUntilRealloc() {
		t.Fatal("a reallocating insert left the index on the superseded column")
	}
	if err := c.Delete(5); err != nil {
		t.Fatal(err)
	}
	if !insertUntilRealloc() {
		t.Fatal("a reallocating insert after a delete left the index on the superseded column")
	}
	if err := c.UpdateVector(3, ds.Row(7)); err != nil {
		t.Fatal(err)
	}
	if insertUntilRealloc() {
		t.Fatal("an index stale through an update was rebound onto the updated column")
	}
	for _, id := range []int64{0, int64(n), int64(next - 1)} {
		res, err := c.Search(bg, SearchRequest{Vector: ds.Row(int(id)), K: 1, Ef: 32})
		if err != nil || len(res.Hits) != 1 || res.Hits[0].ID != id || res.Hits[0].Dist != 0 {
			t.Fatalf("self query %d: %+v %v", id, res.Hits, err)
		}
	}
}
