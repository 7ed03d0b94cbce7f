package topk

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCollectorBasic(t *testing.T) {
	c := NewCollector(3)
	if c.K() != 3 || c.Len() != 0 || c.Full() {
		t.Fatal("fresh collector state wrong")
	}
	for i, d := range []float32{5, 1, 4, 2, 3} {
		c.Push(int64(i), d)
	}
	if !c.Full() || c.Len() != 3 {
		t.Fatal("collector should be full with 3")
	}
	res := c.Results()
	wantDists := []float32{1, 2, 3}
	wantIDs := []int64{1, 3, 4}
	for i := range res {
		if res[i].Dist != wantDists[i] || res[i].ID != wantIDs[i] {
			t.Fatalf("Results = %v", res)
		}
	}
	if c.Worst() != 3 {
		t.Fatalf("Worst = %v", c.Worst())
	}
}

func TestCollectorRejectsWorse(t *testing.T) {
	c := NewCollector(2)
	c.Push(1, 1)
	c.Push(2, 2)
	if c.Push(3, 5) {
		t.Fatal("Push should reject a worse candidate when full")
	}
	if !c.WouldAccept(0.5) || c.WouldAccept(2.5) {
		t.Fatal("WouldAccept wrong")
	}
	if !c.Push(4, 0.5) {
		t.Fatal("Push should accept a better candidate")
	}
	res := c.Results()
	if res[0].ID != 4 || res[1].ID != 1 {
		t.Fatalf("Results = %v", res)
	}
}

func TestCollectorTiesBrokenByID(t *testing.T) {
	c := NewCollector(3)
	c.Push(9, 1)
	c.Push(2, 1)
	c.Push(5, 1)
	res := c.Results()
	if res[0].ID != 2 || res[1].ID != 5 || res[2].ID != 9 {
		t.Fatalf("tie order = %v", res)
	}
}

func TestCollectorPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCollector(0)
}

// Regression: Worst() used to return 0 on an empty heap, a sentinel
// that silently pruned every candidate in callers comparing
// "dist > Worst()" without a Full() guard. Until the collector is
// full nothing can be pruned, so the bound must be +Inf.
func TestWorstNotFullIsInf(t *testing.T) {
	c := NewCollector(2)
	if !math.IsInf(float64(c.Worst()), 1) {
		t.Fatalf("Worst on empty = %v, want +Inf", c.Worst())
	}
	c.Push(1, 7)
	if !math.IsInf(float64(c.Worst()), 1) {
		t.Fatalf("Worst on partially full = %v, want +Inf", c.Worst())
	}
	c.Push(2, 9)
	if c.Worst() != 9 {
		t.Fatalf("Worst on full = %v, want 9", c.Worst())
	}
}

// The kept set must be a pure function of the candidate multiset:
// equal-distance candidates at the k boundary are resolved by id, not
// by arrival order. This is the property parallel partition+merge
// relies on.
func TestPushTiesSelectedByID(t *testing.T) {
	perms := [][]int64{{3, 1, 2}, {1, 2, 3}, {2, 3, 1}, {3, 2, 1}}
	for _, ids := range perms {
		c := NewCollector(2)
		for _, id := range ids {
			c.Push(id, 1)
		}
		res := c.Results()
		if len(res) != 2 || res[0].ID != 1 || res[1].ID != 2 {
			t.Fatalf("push order %v kept %v, want ids 1,2", ids, res)
		}
	}
}

func TestReset(t *testing.T) {
	c := NewCollector(2)
	c.Push(1, 1)
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestMerge(t *testing.T) {
	a := NewCollector(3)
	b := NewCollector(3)
	a.Push(1, 1)
	a.Push(2, 9)
	b.Push(3, 2)
	b.Push(4, 3)
	a.Merge(b)
	res := a.Results()
	if len(res) != 3 || res[0].ID != 1 || res[1].ID != 3 || res[2].ID != 4 {
		t.Fatalf("Merge = %v", res)
	}
}

func TestMergeResults(t *testing.T) {
	got := MergeResults(2,
		[]Result{{ID: 1, Dist: 3}, {ID: 2, Dist: 1}},
		[]Result{{ID: 3, Dist: 2}},
	)
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 3 {
		t.Fatalf("MergeResults = %v", got)
	}
}

// Property: the collector returns exactly the k smallest distances of
// any stream, in ascending order.
func TestCollectorMatchesSort(t *testing.T) {
	f := func(seed int64, kk uint8, nn uint8) bool {
		k := int(kk%10) + 1
		n := int(nn) + 1
		rng := rand.New(rand.NewSource(seed))
		dists := make([]float32, n)
		c := NewCollector(k)
		for i := 0; i < n; i++ {
			dists[i] = rng.Float32()
			c.Push(int64(i), dists[i])
		}
		sorted := append([]float32(nil), dists...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		res := c.Results()
		want := k
		if n < k {
			want = n
		}
		if len(res) != want {
			return false
		}
		for i := range res {
			if res[i].Dist != sorted[i] {
				return false
			}
			if i > 0 && res[i].Dist < res[i-1].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowKeepsItsSlice: a windowed collector keeps the first k
// candidates of the (Dist, ID) order strictly after the cursor and at
// most the radius away, whether fed by Push, PushBlock or PushIDs, on
// tie-heavy streams whose cursor and radius fall on ties; the zero
// Window is NewCollector.
func TestWindowKeepsItsSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60) + 1
		dist := make([]float32, n)
		ids := make([]int32, n)
		all := make([]Result, n)
		for i := range dist {
			dist[i], ids[i] = float32(rng.Intn(6)), int32(i)
			all[i] = Result{ID: int64(i), Dist: dist[i]}
		}
		sortResults(all)
		w := Window{}
		if rng.Intn(2) == 0 {
			w.After = &all[rng.Intn(n)]
		}
		if rng.Intn(2) == 0 {
			w.Radius = float32(rng.Intn(6))
		}
		k := rng.Intn(n) + 1
		var want []Result
		for _, r := range all {
			after := w.After == nil || worse(r, *w.After)
			if after && (w.Radius == 0 || r.Dist <= w.Radius) && len(want) < k {
				want = append(want, r)
			}
		}
		push, block, gathered := NewWindow(k, w), NewWindow(k, w), NewWindow(k, w)
		for i, d := range dist {
			push.Push(int64(i), d)
		}
		block.PushBlock(0, dist)
		gathered.PushIDs(ids, dist)
		for name, c := range map[string]*Collector{"push": push, "block": block, "ids": gathered} {
			if got := c.Results(); len(got) != len(want) || (len(want) > 0 && !resultsEqual(got, want)) {
				t.Fatalf("trial %d %s k=%d window=%+v: got %v, want %v", trial, name, k, w, got, want)
			}
		}
	}
	if c := NewWindow(3, Window{}); c.win || !math.IsInf(float64(c.Worst()), 1) {
		t.Fatal("the zero Window must be an unwindowed collector")
	}
}

func TestMinQueueOrdering(t *testing.T) {
	var q MinQueue
	for i, d := range []float32{4, 1, 3, 2, 5} {
		q.Push(int64(i), d)
	}
	if q.Peek().Dist != 1 {
		t.Fatalf("Peek = %v", q.Peek())
	}
	prev := float32(-1)
	for q.Len() > 0 {
		r := q.Pop()
		if r.Dist < prev {
			t.Fatalf("MinQueue out of order: %v after %v", r.Dist, prev)
		}
		prev = r.Dist
	}
}

// Property: MinQueue pops in non-decreasing order.
func TestMinQueueProperty(t *testing.T) {
	f := func(ds []float32) bool {
		var q MinQueue
		for i, d := range ds {
			q.Push(int64(i), d)
		}
		prev := float32(0)
		first := true
		for q.Len() > 0 {
			r := q.Pop()
			if !first && r.Dist < prev {
				return false
			}
			prev, first = r.Dist, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMinQueueReset(t *testing.T) {
	var q MinQueue
	q.Push(1, 1)
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("Reset failed")
	}
}
