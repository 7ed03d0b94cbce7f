// Package graph provides the shared machinery of the graph-based
// indexes of Section 2.2: adjacency storage, greedy/beam best-first
// search, and the robust-prune edge selection rule (the α-RNG rule of
// Vamana, also used as HNSW's neighbor-selection heuristic).
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

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
	// Quant, when set, scores traversal candidates on quantized codes
	// instead of float32 rows: Bind returns a Query backed by the
	// compressed kernel, so neighbor expansion touches BytesPerRow()
	// bytes per node instead of 4*Dim. Owners re-rank the final
	// candidates with Scorer — traversal distances are approximate.
	// Build-time helpers (DistRows, RobustPrune) keep full precision:
	// graphs are constructed before codes are attached.
	Quant vec.QuantScorer
}

// NewSearcher checks the shape of n row-major vectors of dimension d
// and binds a scorer for metric to them: the first step of every graph
// family's build. Its errors name the family.
func NewSearcher(family string, metric vec.Metric, data []float32, n, d int) (*Searcher, error) {
	if d <= 0 || n <= 0 || len(data) < n*d {
		return nil, fmt.Errorf("%s: bad data shape n=%d d=%d len=%d", family, n, d, len(data))
	}
	sc, err := vec.NewScorer(metric, data, n, d)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", family, err)
	}
	return &Searcher{Data: data, Dim: d, Scorer: sc}, nil
}

// Row returns vector id.
func (s *Searcher) Row(id int32) []float32 {
	return s.Data[int(id)*s.Dim : (int(id)+1)*s.Dim]
}

// DistRows computes the distance between two stored rows, using cached
// state on both sides (edge pruning compares node pairs, so cosine
// norms would otherwise be recomputed per edge).
func (s *Searcher) DistRows(i, j int32) float32 {
	return s.Scorer.ScoreRows(int(i), int(j))
}

// Query is a query bound to a Searcher: per-query scoring state is
// resolved once and every Dist is one kernel call. It counts nothing;
// a caller adds what it computed to its query's stats, once. It is a
// value; copying is cheap.
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
	visited []uint64
	touched []int32
	// pool holds the ef closest nodes seen in (dist, id) order — the beam
	// that bounds the expansion, and without a predicate the results too.
	// next is the position of the first node in it not yet expanded.
	pool []candidate
	next int
	// results holds the ef closest admitted nodes under a predicate.
	// Blocked nodes still enter the pool and are expanded, so a selective
	// filter cannot stall the search.
	results topk.Collector
	dist    []float32     // scores of the list being expanded
	entries []int32       // Score's distinct ids
	seeds   []topk.Result // and its answer
	comps   int64
}

// candidate is one node of a traversal's pool.
type candidate struct {
	id       int32
	dist     float32
	expanded bool
}

// before reports whether (d, id) ranks ahead of c in the pool's order.
func before(d float32, id int32, c candidate) bool {
	return d < c.dist || d == c.dist && id < c.id
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
// visited — to stats, when non-nil, and returns the scratch to the pool.
func (t *Traversal) End(stats *index.SearchStats) {
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

// Score returns the distinct ids of entries with their distances, in
// the order they first appear, for seeding a walk or a beam search. The
// slice is the scratch's: valid until the next Score.
func (t *Traversal) Score(entries []int32) []topk.Result {
	t.entries = t.entries[:0]
	for i, id := range entries {
		if !slices.Contains(entries[:i], id) {
			t.entries = append(t.entries, id)
		}
	}
	t.seeds = t.seeds[:0]
	for i, d := range t.score(t.entries) {
		t.seeds = append(t.seeds, topk.Result{ID: int64(t.entries[i]), Dist: d})
	}
	return t.seeds
}

// clockPoll is how many expansions a beam search makes per read of the
// clock: an expansion scores a neighbour list, about a microsecond at
// the degrees the families build, so a deadline is seen within a few.
const clockPoll = 8

// BeamSearch runs best-first search from the entry points with beam
// width ef, returning up to k admitted results. It is the canonical
// procedure of NSW/HNSW/NSG/Vamana: keep the ef closest nodes seen, and
// expand the closest of them not yet expanded until there is none.
//
// Predicate handling implements visit-first scan (Section 2.3(2)):
// blocked nodes are still *traversed* (otherwise a selective filter
// disconnects the graph) but never enter the result set.
//
// p.Ctx is polled once per expansion, and its deadline on the clock
// (Params.Late) once every clockPoll expansions: a cancelled search
// returns its context's error after at most one further expansion, and
// one past its deadline context.DeadlineExceeded within clockPoll of
// them, timer run or not, with the nodes it did score counted. A search
// without a context cannot fail.
func BeamSearch(s *Searcher, adj Neighborhoods, q []float32, entries []int32, k, ef int, p index.Params) ([]topk.Result, error) {
	t := s.Begin(q)
	res, err := t.BeamSearch(adj, t.Score(entries), k, ef, &p)
	t.End(p.Stats)
	return res, err
}

// BeamSearch is the package-level BeamSearch on a scratch the caller
// holds, from entry points it has scored (by Score, a GreedyWalk, or an
// earlier BeamSearch), for searches of several steps — HNSW's descent,
// then its layers — that share one query binding and one count.
func (t *Traversal) BeamSearch(adj Neighborhoods, entries []topk.Result, k, ef int, p *index.Params) ([]topk.Result, error) {
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
	t.pool, t.next = t.pool[:0], 0
	constrained := p.Constrained()
	if constrained {
		t.results.ResetK(ef)
	}
	for _, e := range entries {
		if id := int32(e.ID); t.mark(id) {
			t.offer(id, e.Dist, ef, p, constrained)
		}
	}
	slab, _ := adj.(*Slab)
	done := p.Done()
	for polls := 0; t.next < len(t.pool); polls++ {
		if index.Stopped(done) || polls%clockPoll == 0 && p.Late() {
			return nil, p.Err()
		}
		cur := &t.pool[t.next]
		cur.expanded = true
		id := cur.id
		next := t.next + 1
		for next < len(t.pool) && t.pool[next].expanded {
			next++
		}
		t.next = next
		// The list of the node expanded after this one is a dependent
		// miss behind its pool entry: start it now, so it overlaps this
		// expansion's scoring. An insert ahead of it may change which node
		// that is; the hint is then wasted, never wrong.
		if slab != nil && next < len(t.pool) {
			slab.prefetch(t.pool[next].id)
		}
		t.expand(adj.Neighbors(id), ef, p, constrained)
	}
	var best []topk.Result
	if constrained {
		best = t.results.Drain()
		best = append(make([]topk.Result, 0, min(k, len(best))), best[:min(k, len(best))]...)
	} else {
		best = make([]topk.Result, min(k, len(t.pool)))
		for i := range best {
			best[i] = topk.Result{ID: int64(t.pool[i].id), Dist: t.pool[i].dist}
		}
	}
	return best, nil
}

// mark sets id's visited bit and reports whether it was clear.
func (t *Traversal) mark(id int32) bool {
	w, bit := &t.visited[id>>6], uint64(1)<<(id&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	t.touched = append(t.touched, id)
	return true
}

// expand visits the nodes of list not visited before, in three passes:
// mark them, score them in one kernel call — their rows are scattered,
// and the kernel can only overlap the misses of rows it is handed
// together — then offer them to the pool in list order. Scoring is
// pure, so every candidate meets the pool in the state a score-as-you-go
// loop would have left it in and the outcome is the same.
func (t *Traversal) expand(list []int32, ef int, p *index.Params, constrained bool) {
	first := len(t.touched)
	for _, id := range list {
		t.mark(id)
	}
	ids := t.touched[first:]
	for i, d := range t.score(ids) {
		t.offer(ids[i], d, ef, p, constrained)
	}
}

// offer inserts a scored node into the pool, dropping the last entry of
// a full pool, unless the node does not rank ahead of that entry; and,
// under a predicate, an admitted node into results. An insert ahead of
// the first unexpanded node makes it the next one.
func (t *Traversal) offer(id int32, d float32, ef int, p *index.Params, constrained bool) {
	if constrained && d <= t.results.Worst() && p.Admits(int64(id)) {
		t.results.Push(int64(id), d)
	}
	n := len(t.pool)
	if n == ef && !before(d, id, t.pool[n-1]) {
		return
	}
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if before(d, id, t.pool[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if n < ef {
		t.pool = append(t.pool, candidate{})
	}
	copy(t.pool[lo+1:], t.pool[lo:])
	t.pool[lo] = candidate{id: id, dist: d}
	if lo < t.next {
		t.next = lo
	}
}

// GreedyWalk performs pure greedy descent (beam width 1) from the scored
// entry, returning the local minimum reached. Used by HNSW's upper
// layers and by monotonic-path probing during MSN construction.
func (t *Traversal) GreedyWalk(adj Neighborhoods, entry topk.Result) topk.Result {
	cur, curD := int32(entry.ID), entry.Dist
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
			return topk.Result{ID: int64(cur), Dist: curD}
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

// SortByDist orders construction candidates by ascending distance,
// keeping tied ones in the order they came: the edges a build selects,
// and so its hashes, depend on it.
func SortByDist(rs []topk.Result) {
	slices.SortStableFunc(rs, func(a, b topk.Result) int { return cmp.Compare(a.Dist, b.Dist) })
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
