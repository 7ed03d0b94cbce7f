// Package graph provides the shared machinery of the graph-based
// indexes of Section 2.2: adjacency storage, greedy/beam best-first
// search, and the robust-prune edge selection rule (the α-RNG rule of
// Vamana, also used as HNSW's neighbor-selection heuristic).
package graph

import (
	"sync"
	"sync/atomic"

	"vdbms/internal/index"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// Adjacency is a mutable out-neighbor list per node.
type Adjacency [][]int32

// Neighbors implements the read side of Neighborhoods.
func (a Adjacency) Neighbors(id int32) []int32 { return a[id] }

// Len implements Neighborhoods.
func (a Adjacency) Len() int { return len(a) }

// Neighborhoods is read-only access to a graph's out-edges, satisfied
// by both the mutable Adjacency (construction) and the frozen Slab
// (serving). Traversals take this interface so a built index can swap
// its per-node slices for one flat allocation without touching the
// search code.
type Neighborhoods interface {
	Neighbors(id int32) []int32
	Len() int
}

// Searcher bundles what beam search needs: the vectors and distance.
type Searcher struct {
	Data []float32
	Dim  int
	// Scorer serves all distance computations with cached per-row state
	// (inverse norms for cosine, the Mahalanobis pre-transform).
	// Traversals bind the query once per search, so the query-side state
	// is also resolved once instead of per edge.
	Scorer *vec.Scorer
	// Comps counts distance computations (incremented by searches and
	// build helpers; the caller owns reset). Atomic because concurrent
	// searches share one Searcher per index.
	Comps atomic.Int64
	// Quant, when set, scores traversal candidates on quantized codes
	// instead of float32 rows: Bind returns a Query backed by the
	// compressed kernel, so neighbor expansion touches BytesPerRow()
	// bytes per node instead of 4*Dim. Owners re-rank the final
	// candidates with Scorer — traversal distances are approximate.
	// Build-time helpers (DistRows, RobustPrune) keep full precision:
	// graphs are constructed before codes are attached.
	Quant vec.QuantScorer
}

// ScoringBytes reports the resident bytes the traversal scoring path
// touches per node times n — the numerator of the compression claim
// (adjacency is identical either way and excluded).
func (s *Searcher) ScoringBytes(n int) int {
	if s.Quant != nil {
		return n * s.Quant.BytesPerRow()
	}
	return n * s.Dim * 4
}

// Row returns vector id.
func (s *Searcher) Row(id int32) []float32 {
	return s.Data[int(id)*s.Dim : (int(id)+1)*s.Dim]
}

// DistRows computes the distance between two stored rows, using cached
// state on both sides (edge pruning compares node pairs, so cosine
// norms would otherwise be recomputed per edge).
func (s *Searcher) DistRows(i, j int32) float32 {
	s.Comps.Add(1)
	return s.Scorer.ScoreRows(int(i), int(j))
}

// Query is a query bound to a Searcher: per-query scoring state is
// resolved once and every Dist is one kernel call. It does not count
// into Comps; a caller adds what it computed, once. It is a value;
// copying is cheap.
type Query struct {
	b  vec.Bound
	qb vec.QuantBound // set when the Searcher scans quantized codes
}

// Bind prepares per-query scoring state for q. When the Searcher
// carries a quantized kernel the bound query scores codes (building
// the per-query LUT here, once per search).
func (s *Searcher) Bind(q []float32) Query {
	if s.Quant != nil {
		return Query{qb: s.Quant.Bind(q)}
	}
	return Query{b: s.Scorer.Bind(q)}
}

// Dist returns the distance from the bound query to node id.
func (bq Query) Dist(id int32) float32 {
	if bq.qb != nil {
		return bq.qb.ScoreAt(int(id))
	}
	return bq.b.ScoreAt(int(id))
}

// Traversal is the scratch of one search in flight, bound to its query.
// Everything a traversal grows lives here and is reused by the next
// search that draws the scratch from the pool, so a probe allocates only
// the slice it returns, and its distance computations are counted in a
// local that End publishes once.
type Traversal struct {
	s  *Searcher
	bq Query
	// visited has one bit per node. The set bits are exactly those of
	// the ids in touched, so a search clears them by replaying the list:
	// a few hundred stores, where clearing the words would cost n/64 and
	// a stamp per node would cost 32 times the memory per search in flight.
	visited  []uint64
	touched  []int32
	frontier topk.MinQueue
	// beam holds the ef closest nodes seen, which without a predicate
	// are also the results. Under one, results holds the ef closest
	// admitted nodes while beam keeps bounding the expansion, so a
	// selective filter cannot stall it.
	beam, results topk.Collector
	dist          []float32 // scores of the list being expanded
	comps         int64
}

var traversals = sync.Pool{New: func() any { return new(Traversal) }}

// Begin draws a scratch from the pool — shared by every Searcher, so it
// may have served a larger or a smaller graph — and binds it to q. The
// caller runs its walks and beam searches on it from one goroutine and
// then calls End.
func (s *Searcher) Begin(q []float32) *Traversal {
	t := traversals.Get().(*Traversal)
	t.s, t.bq, t.comps = s, s.Bind(q), 0
	return t
}

// End publishes the traversal's distance computations — one per node
// visited — to the Searcher's counter and to stats, when non-nil, and
// returns the scratch to the pool.
func (t *Traversal) End(stats *index.SearchStats) {
	t.s.Comps.Add(t.comps)
	if stats != nil {
		stats.NodesVisited += t.comps
		stats.DistanceComps += t.comps
	}
	t.s, t.bq = nil, Query{} // a pooled scratch must not pin a column
	traversals.Put(t)
}

// score returns the distances of the nodes ids, from one kernel call.
// The slice is the scratch's: valid until the next score.
func (t *Traversal) score(ids []int32) []float32 {
	if cap(t.dist) < len(ids) {
		t.dist = make([]float32, 2*len(ids))
	}
	dist := t.dist[:len(ids)]
	if t.bq.qb != nil {
		t.bq.qb.ScoreIDs(ids, dist)
	} else {
		t.bq.b.ScoreIDs(ids, dist)
	}
	t.comps += int64(len(ids))
	return dist
}

// BeamSearch runs best-first search from the entry points with beam
// width ef, returning up to k admitted results. It is the canonical
// procedure of NSW/HNSW/NSG/Vamana: maintain a candidate min-heap and
// a bounded result set; stop when the closest unexpanded candidate is
// worse than the worst kept result.
//
// Predicate handling implements visit-first scan (Section 2.3(2)):
// blocked nodes are still *traversed* (otherwise a selective filter
// disconnects the graph) but never enter the result set.
//
// p.Ctx is polled once per popped node: a cancelled search returns its
// context's error after at most one further expansion, with the nodes
// it did score counted. A search without one cannot fail.
func BeamSearch(s *Searcher, adj Neighborhoods, q []float32, entries []int32, k, ef int, p index.Params) ([]topk.Result, error) {
	t := s.Begin(q)
	res, err := t.BeamSearch(adj, entries, k, ef, &p)
	t.End(p.Stats)
	return res, err
}

// BeamSearch is the package-level BeamSearch on a scratch the caller
// holds, for searches of several steps (HNSW's descent, then its base
// layer) that share one query binding and one count.
func (t *Traversal) BeamSearch(adj Neighborhoods, entries []int32, k, ef int, p *index.Params) ([]topk.Result, error) {
	if ef < k {
		ef = k
	}
	// Clearing here and not in End also cleans up after a search that a
	// panicking Filter cut short.
	for _, id := range t.touched {
		t.visited[id>>6] = 0
	}
	t.touched = t.touched[:0]
	if words := (t.s.Scorer.Rows() + 63) / 64; len(t.visited) < words {
		t.visited = make([]uint64, words)
	}
	t.frontier.Reset()
	t.beam.ResetK(ef)
	results := &t.beam
	if p.Constrained() {
		results = &t.results
		results.ResetK(ef)
	}
	done := p.Done()
	t.expand(entries, results, p, false)
	for t.frontier.Len() > 0 {
		if index.Stopped(done) {
			return nil, p.Err()
		}
		cur := t.frontier.Pop()
		if t.beam.Full() && cur.Dist > t.beam.Worst() {
			break
		}
		t.expand(adj.Neighbors(int32(cur.ID)), results, p, true)
	}
	best := results.Drain()
	best = best[:min(k, len(best))]
	return append(make([]topk.Result, 0, len(best)), best...), nil
}

// expand visits the nodes of list not visited before, in three passes:
// mark them, score them in one kernel call — their rows are scattered,
// and the kernel can only overlap the misses of rows it is handed
// together — then offer them to the heaps in list order. Scoring is
// pure, so every candidate meets the heaps in the state a
// score-as-you-go loop would have left them in and the outcome is the
// same. prune drops a candidate that can enter neither a full beam nor
// full results; the entry points are offered without it.
func (t *Traversal) expand(list []int32, results *topk.Collector, p *index.Params, prune bool) {
	first := len(t.touched)
	for _, id := range list {
		w, bit := &t.visited[id>>6], uint64(1)<<(id&63)
		if *w&bit == 0 {
			*w |= bit
			t.touched = append(t.touched, id)
		}
	}
	ids := t.touched[first:]
	constrained := results != &t.beam
	for i, d := range t.score(ids) {
		if prune && t.beam.Full() && d >= t.beam.Worst() && (!constrained || results.Full() && d >= results.Worst()) {
			continue
		}
		id := int64(ids[i])
		t.frontier.Push(id, d)
		t.beam.Push(id, d)
		if constrained && p.Admits(id) {
			results.Push(id, d)
		}
	}
}

// GreedyWalk performs pure greedy descent (beam width 1) from entry,
// returning the local minimum reached. Used by HNSW's upper layers and
// by monotonic-path probing during MSN construction.
func (t *Traversal) GreedyWalk(adj Neighborhoods, entry int32) (int32, float32) {
	t.comps++
	cur, curD := entry, t.bq.Dist(entry)
	for {
		nbrs := adj.Neighbors(cur)
		improved := false
		for i, d := range t.score(nbrs) {
			if d < curD {
				cur, curD = nbrs[i], d
				improved = true
			}
		}
		if !improved {
			return cur, curD
		}
	}
}

// RobustPrune selects up to degree out-neighbors for node p from the
// candidate pool using the α-RNG rule (Vamana; α=1 gives the classic
// relative-neighborhood-graph rule, α>1 keeps longer "highway" edges):
// a candidate c is kept only if no already-kept neighbor b satisfies
// α·dist(b,c) <= dist(p,c).
func RobustPrune(s *Searcher, pid int32, cands []topk.Result, degree int, alpha float32) []int32 {
	// Candidates must be in ascending distance from pid.
	kept := make([]int32, 0, degree)
	for _, c := range cands {
		if int32(c.ID) == pid {
			continue
		}
		ok := true
		for _, b := range kept {
			db := s.DistRows(b, int32(c.ID))
			if alpha*db <= c.Dist {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, int32(c.ID))
			if len(kept) == degree {
				break
			}
		}
	}
	return kept
}

// TopKClosest selects the k nearest candidates without pruning — the
// naive neighbor-selection rule ablated against RobustPrune in E6.
func TopKClosest(cands []topk.Result, k int, skip int32) []int32 {
	out := make([]int32, 0, k)
	for _, c := range cands {
		if int32(c.ID) == skip {
			continue
		}
		out = append(out, int32(c.ID))
		if len(out) == k {
			break
		}
	}
	return out
}

// AvgDegree reports the mean out-degree, an index-size proxy for E6.
func AvgDegree(adj Neighborhoods) float64 {
	if adj == nil {
		return 0
	}
	n := adj.Len()
	if n == 0 {
		return 0
	}
	total := 0
	if s, ok := adj.(*Slab); ok {
		total = s.Edges()
	} else {
		for i := 0; i < n; i++ {
			total += len(adj.Neighbors(int32(i)))
		}
	}
	return float64(total) / float64(n)
}
