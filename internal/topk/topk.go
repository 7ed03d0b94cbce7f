// Package topk implements the bounded result collectors behind the
// Sort/Top-K operator of Figure 1. A Collector keeps the k smallest
// distances seen so far using a binary max-heap, so insertion is
// O(log k) and scans can prune with Worst().
//
// The heap is ordered by the total order (Dist, ID): among
// equal-distance candidates the smaller id wins. This makes the kept
// set a pure function of the candidate multiset — independent of
// arrival order — which is what lets parallel scans partition a stream
// across per-worker collectors and Merge them with results identical
// to a single serial collector at any worker count.
package topk

import (
	"cmp"
	"math"
	"slices"
)

// Result is one search hit: a row id and its distance to the query.
type Result struct {
	ID   int64
	Dist float32
}

// Collector accumulates the k results with the smallest distances.
// It is not safe for concurrent use.
type Collector struct {
	k      int
	heap   []Result // max-heap on Dist
	pushes int64    // candidates offered, kept or not
	// win marks a collector from NewWindow: it keeps only candidates
	// strictly after after and no farther than radius. radius is +Inf
	// otherwise; Worst returns it while the heap has room, so a block
	// push cuts at the radius with no test of its own.
	win    bool
	after  Result
	radius float32
}

// NewCollector returns a collector for the k nearest results. k must
// be positive.
func NewCollector(k int) *Collector {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &Collector{k: k, heap: make([]Result, 0, k), radius: float32(math.Inf(1))}
}

// Window is the part of the (Dist, ID) order a windowed collector keeps:
// the candidates strictly after the cursor After and at distance at
// most Radius, (After, Radius]. It is how one bounded scan answers a
// range query and the next page of a paged one.
type Window struct {
	// After is the last hit of the previous page; nil starts at the
	// nearest candidate.
	After *Result
	// Radius is the largest distance kept; 0 bounds nothing.
	Radius float32
}

// Bounded reports whether w leaves anything out.
func (w Window) Bounded() bool { return w.After != nil || w.Radius > 0 }

// NewWindow returns a collector for the k nearest results inside w. The
// zero Window is NewCollector.
func NewWindow(k int, w Window) *Collector {
	c := NewCollector(k)
	c.win, c.after = w.Bounded(), Result{ID: math.MinInt64, Dist: float32(math.Inf(-1))}
	if w.After != nil {
		c.after = *w.After
	}
	if w.Radius > 0 {
		c.radius = w.Radius
	}
	return c
}

// K returns the requested result count.
func (c *Collector) K() int { return c.k }

// Len returns how many results are currently held.
func (c *Collector) Len() int { return len(c.heap) }

// Full reports whether k results are held.
func (c *Collector) Full() bool { return len(c.heap) == c.k }

// Worst returns the pruning bound: the largest kept distance when
// Full(), otherwise the window's radius — +Inf outside a window. A
// collector with room left prunes nothing inside its window, so the
// historical empty-heap sentinel of 0 — which silently discarded every
// candidate in callers that skipped the Full() guard — is gone.
func (c *Collector) Worst() float32 {
	if len(c.heap) < c.k {
		return c.radius
	}
	return c.heap[0].Dist
}

// Pushes returns how many candidates have been offered via Push,
// PushBlock or PushIDs since construction (or the last Reset), whether
// or not they were kept. Merge traces use it to report how many
// per-shard candidates fed the final top-k.
func (c *Collector) Pushes() int64 { return c.pushes }

// Less reports whether a ranks before b in the (Dist, ID) total order
// every collector keeps: a hit is strictly after a page cursor c when
// Less(c, hit).
func Less(a, b Result) bool { return worse(b, a) }

// worse reports whether a ranks after b in the (Dist, ID) total
// order — i.e. a is the one to evict first.
func worse(a, b Result) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

// Push offers a candidate. It returns true if the candidate was kept
// (i.e. the heap was not full or the candidate beat the worst entry
// under the (Dist, ID) order).
func (c *Collector) Push(id int64, dist float32) bool {
	c.pushes++
	return c.offer(Result{ID: id, Dist: dist})
}

// offer is Push without the accounting. A windowed collector tests
// its window here, where only a candidate at or under the bound
// arrives: a row a block push cuts costs no window test.
func (c *Collector) offer(r Result) bool {
	if c.win && !(r.Dist <= c.radius && worse(r, c.after)) {
		return false
	}
	if len(c.heap) < c.k {
		c.heap = append(c.heap, r)
		c.siftUp(len(c.heap) - 1)
		return true
	}
	if !worse(c.heap[0], r) {
		return false
	}
	c.heap[0] = r
	c.siftDown(0)
	return true
}

// PushBlock offers the candidates (base+i, dist[i]) — one scored block
// of a contiguous scan. The kept set and Pushes() are those of a loop
// of Push; the difference is that the pruning bound stays in a local
// and the heap is entered only by a candidate that can win (one tying
// the bound still can, on its id), which in a scan past its first few
// blocks is almost none.
func (c *Collector) PushBlock(base int64, dist []float32) {
	c.pushes += int64(len(dist))
	worst := c.Worst()
	for i, d := range dist {
		if d > worst {
			continue
		}
		c.offer(Result{ID: base + int64(i), Dist: d})
		worst = c.Worst()
	}
}

// PushIDs is PushBlock for a gathered block: it offers the candidates
// (ids[i], dist[i]).
func (c *Collector) PushIDs(ids []int32, dist []float32) {
	c.pushes += int64(len(ids))
	worst := c.Worst()
	for i, id := range ids {
		d := dist[i]
		if d > worst {
			continue
		}
		c.offer(Result{ID: int64(id), Dist: d})
		worst = c.Worst()
	}
}

// WouldAccept reports whether a candidate at dist would certainly be
// kept, without inserting it. A candidate tying the worst distance is
// reported as rejected even though Push may keep it when its id wins
// the tie; callers use this only as a conservative skip test.
func (c *Collector) WouldAccept(dist float32) bool {
	return len(c.heap) < c.k || dist < c.heap[0].Dist
}

// Results returns the collected hits sorted by ascending distance
// (ties broken by id for determinism). The collector remains usable.
func (c *Collector) Results() []Result {
	out := make([]Result, len(c.heap))
	copy(out, c.heap)
	sortResults(out)
	return out
}

// Drain sorts the kept hits in place, in the order of Results, and
// returns the collector's own storage: no copy, valid until the next
// Reset, which must come before the next Push.
func (c *Collector) Drain() []Result {
	sortResults(c.heap)
	return c.heap
}

func sortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		if a.Dist != b.Dist {
			if a.Dist < b.Dist {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// Reset empties the collector, keeping capacity.
func (c *Collector) Reset() {
	c.heap = c.heap[:0]
	c.pushes = 0
}

// ResetK is Reset for a collector that is reused at a different k, as
// an unwindowed one: it also readies a zero Collector for use.
func (c *Collector) ResetK(k int) {
	c.k, c.win, c.radius = k, false, float32(math.Inf(1))
	c.Reset()
}

func (c *Collector) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(c.heap[i], c.heap[p]) {
			return
		}
		c.heap[p], c.heap[i] = c.heap[i], c.heap[p]
		i = p
	}
}

func (c *Collector) siftDown(i int) {
	n := len(c.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && worse(c.heap[l], c.heap[largest]) {
			largest = l
		}
		if r < n && worse(c.heap[r], c.heap[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		c.heap[i], c.heap[largest] = c.heap[largest], c.heap[i]
		i = largest
	}
}

// Merge folds the other collector's results into c. Used by
// scatter-gather to combine per-shard top-k sets.
func (c *Collector) Merge(other *Collector) {
	for _, r := range other.heap {
		c.Push(r.ID, r.Dist)
	}
}

// MergeResults merges pre-sorted or unsorted result slices into a
// single ascending top-k slice.
func MergeResults(k int, lists ...[]Result) []Result {
	c := NewCollector(k)
	for _, l := range lists {
		for _, r := range l {
			c.Push(r.ID, r.Dist)
		}
	}
	return c.Results()
}

// MinQueue is a binary min-heap on distance used as the frontier of
// graph best-first search (NSW/HNSW/Vamana beam search).
type MinQueue struct {
	items []Result
}

// Len returns the queue size.
func (q *MinQueue) Len() int { return len(q.items) }

// Push inserts a candidate.
func (q *MinQueue) Push(id int64, dist float32) {
	q.items = append(q.items, Result{ID: id, Dist: dist})
	i := len(q.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.items[p].Dist <= q.items[i].Dist {
			break
		}
		q.items[p], q.items[i] = q.items[i], q.items[p]
		i = p
	}
}

// Pop removes and returns the smallest-distance item. It panics on an
// empty queue.
func (q *MinQueue) Pop() Result {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	i := 0
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.items[l].Dist < q.items[smallest].Dist {
			smallest = l
		}
		if r < n && q.items[r].Dist < q.items[smallest].Dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
	return top
}

// Peek returns the smallest item without removing it.
func (q *MinQueue) Peek() Result { return q.items[0] }

// Reset empties the queue, keeping capacity.
func (q *MinQueue) Reset() { q.items = q.items[:0] }
