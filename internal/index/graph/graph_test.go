package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"vdbms/internal/bitset"
	"vdbms/internal/index"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// lineGraph builds 1-D points 0..n-1 chained bidirectionally.
func lineGraph(n int) (*Searcher, Adjacency) {
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(i)
	}
	adj := make(Adjacency, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			adj[i] = append(adj[i], int32(i-1))
		}
		if i < n-1 {
			adj[i] = append(adj[i], int32(i+1))
		}
	}
	return newSearcher(data, 1), adj
}

func newSearcher(data []float32, dim int) *Searcher {
	sc, err := vec.NewScorer(vec.L2, data, len(data)/dim, dim)
	if err != nil {
		panic(err)
	}
	return &Searcher{Data: data, Dim: dim, Scorer: sc}
}

// refBeamSearch is the canonical traversal, written to be read rather
// than to be fast: a map for the visited set, one distance computed as
// each node is met, and the beam as a plain list of at most ef nodes in
// (Dist, ID) order, from which the closest node not yet expanded is
// expanded next until none is left. A node that cannot enter a full
// beam is dropped; results collects the admitted nodes. It is the oracle
// the pooled BeamSearch must equal, hit for hit and count for count.
func refBeamSearch(s *Searcher, adj Neighborhoods, q []float32, entries []int32, k, ef int, p index.Params) []topk.Result {
	if ef < k {
		ef = k
	}
	bq := s.Bind(q)
	visited := make(map[int32]struct{}, 4*ef)
	type node struct {
		topk.Result
		expanded bool
	}
	var beam []node
	results := topk.NewCollector(ef)
	meet := func(id int32) {
		if _, dup := visited[id]; dup {
			return
		}
		visited[id] = struct{}{}
		r := topk.Result{ID: int64(id), Dist: bq.Dist(id)}
		if p.Admits(r.ID) {
			results.Push(r.ID, r.Dist)
		}
		i := 0
		for i < len(beam) && (beam[i].Dist < r.Dist || beam[i].Dist == r.Dist && beam[i].ID < r.ID) {
			i++
		}
		if i == ef {
			return
		}
		if beam = slices.Insert(beam, i, node{Result: r}); len(beam) > ef {
			beam = beam[:ef]
		}
	}
	for _, e := range entries {
		meet(e)
	}
	for {
		i := slices.IndexFunc(beam, func(n node) bool { return !n.expanded })
		if i < 0 {
			break
		}
		beam[i].expanded = true
		for _, nb := range adj.Neighbors(int32(beam[i].ID)) {
			meet(nb)
		}
	}
	if p.Stats != nil {
		p.Stats.NodesVisited += int64(len(visited))
		p.Stats.DistanceComps += int64(len(visited))
	}
	// Without a predicate results and the beam hold the same ef nodes.
	res := results.Results()
	if len(res) > k {
		res = res[:k]
	}
	return res
}

// randomGraph draws n points on a small integer grid, so that distances
// tie often and the (Dist, ID) order decides, and out-lists of 0..2*deg
// ids that may repeat an id or name the node itself.
func randomGraph(rng *rand.Rand, n, dim, deg int) (*Searcher, Adjacency) {
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = float32(rng.Intn(6))
	}
	adj := make(Adjacency, n)
	for i := range adj {
		for e := rng.Intn(2*deg + 1); e > 0; e-- {
			adj[i] = append(adj[i], int32(rng.Intn(n)))
		}
	}
	return newSearcher(data, dim), adj
}

type search struct {
	q       []float32
	entries []int32
	k, ef   int
	p       index.Params
}

// randomSearch draws one search of a graph of n nodes: the query, one
// to six entry points (repeats included), k and ef on either side of
// each other — one time in four a beam narrower than the entry points —
// and one of the four predicate shapes, of which an empty allowlist or
// a filter that refuses everything block every node.
func randomSearch(rng *rand.Rand, n, dim int) search {
	c := search{q: make([]float32, dim), k: 1 + rng.Intn(12), ef: 1 + rng.Intn(40)}
	if rng.Intn(4) == 0 {
		c.k, c.ef = 1+rng.Intn(2), 1+rng.Intn(3)
	}
	for i := range c.q {
		c.q[i] = float32(rng.Intn(6)) + 0.25*float32(rng.Intn(3))
	}
	for e := 1 + rng.Intn(6); e > 0; e-- {
		c.entries = append(c.entries, int32(rng.Intn(n)))
	}
	if rng.Intn(4) == 0 {
		c.entries = append(c.entries, c.entries[0])
	}
	shape := rng.Intn(4)
	if shape&1 != 0 {
		c.p.Allow = bitset.New(n)
		for i, share := 0, rng.Intn(4); i < n; i++ { // share 0: all blocked
			if rng.Intn(3) < share {
				c.p.Allow.Set(i)
			}
		}
	}
	if shape&2 != 0 {
		mod := int64(rng.Intn(4)) // mod 0: all blocked
		c.p.Filter = func(id int64) bool { return mod != 0 && id%mod == 0 }
	}
	return c
}

// TestBeamSearchMatchesReference holds BeamSearch to the map-based
// reference over random graphs, including graphs whose entry point has
// no out-edges, and every predicate shape: the same hits and the same
// per-query counts. The searches share the package's scratch pool, so
// each one also inherits a scratch that served a graph of another size.
func TestBeamSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for g := 0; g < 300; g++ {
		n, dim := 1+rng.Intn(300), 1+rng.Intn(9)
		s, adj := randomGraph(rng, n, dim, 1+rng.Intn(6))
		for i := 0; i < 20; i++ {
			c := randomSearch(rng, n, dim)
			if i%5 == 0 {
				adj[c.entries[0]] = nil // an isolated entry point
			}
			var got, want index.SearchStats
			c.p.Stats = &want
			ref := refBeamSearch(s, adj, c.q, c.entries, c.k, c.ef, c.p)
			c.p.Stats = &got
			res, _ := BeamSearch(s, adj, c.q, c.entries, c.k, c.ef, c.p)
			if !reflect.DeepEqual(res, ref) || got != want {
				t.Fatalf("graph %d search %d (n=%d k=%d ef=%d entries=%v allow=%v filter=%v):\n got %v %+v\nwant %v %+v",
					g, i, n, c.k, c.ef, c.entries, c.p.Allow != nil, c.p.Filter != nil, res, got, ref, want)
			}
		}
	}
}

// TestScratchSharedAcrossGraphs runs searches of a small and a large
// graph from eight goroutines at once, all drawing from the one pool: a
// scratch sized by the small graph has to grow for the large one, and
// no search may see bits another left behind. One search in sixteen has
// a Filter that panics half-way, which must not poison the scratch for
// whoever draws it next.
func TestScratchSharedAcrossGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type fixture struct {
		s        *Searcher
		adj      Adjacency
		searches []search
		want     [][]topk.Result
	}
	var fixtures []*fixture
	for _, n := range []int{70, 5000} {
		f := &fixture{}
		f.s, f.adj = randomGraph(rng, n, 4, 4)
		for i := 0; i < 64; i++ {
			c := randomSearch(rng, n, 4)
			f.searches = append(f.searches, c)
			f.want = append(f.want, refBeamSearch(f.s, f.adj, c.q, c.entries, c.k, c.ef, c.p))
		}
		fixtures = append(fixtures, f)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				f := fixtures[(i+w)%2]
				j := (i*7 + w) % len(f.searches)
				c := f.searches[j]
				if i%16 == 0 {
					func() {
						defer func() { _ = recover() }()
						calls := 0
						c.p.Filter = func(int64) bool {
							if calls++; calls > 3 {
								panic("filter gave up")
							}
							return true
						}
						_, _ = BeamSearch(f.s, f.adj, c.q, c.entries, c.k, c.ef, c.p)
					}()
					continue
				}
				if res, _ := BeamSearch(f.s, f.adj, c.q, c.entries, c.k, c.ef, c.p); !reflect.DeepEqual(res, f.want[j]) {
					t.Errorf("worker %d search %d on n=%d: got %v, want %v", w, i, len(f.adj), res, f.want[j])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestScratchReusedManyTimes runs 100 000 searches on one scratch: the
// visited bits are cleared by replaying what a search touched, so a
// bit that once survived would wrong every search after it.
func TestScratchReusedManyTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const n, dim = 400, 4
	s, adj := randomGraph(rng, n, dim, 5)
	searches := make([]search, 128)
	want := make([][]topk.Result, len(searches))
	for i := range searches {
		c := randomSearch(rng, n, dim)
		searches[i], want[i] = c, refBeamSearch(s, adj, c.q, c.entries, c.k, c.ef, c.p)
	}
	rounds := 100000
	if testing.Short() {
		rounds = 5000
	}
	tr := s.Begin(searches[0].q)
	defer tr.End(nil)
	for i := 0; i < rounds; i++ {
		j := i % len(searches)
		c := searches[j]
		tr.bq = s.Bind(c.q)
		if res, _ := tr.BeamSearch(adj, tr.Score(c.entries), c.k, c.ef, &c.p); !reflect.DeepEqual(res, want[j]) {
			t.Fatalf("search %d: got %v, want %v", i, res, want[j])
		}
	}
}

func TestBeamSearchFindsNearest(t *testing.T) {
	s, adj := lineGraph(100)
	res, _ := BeamSearch(s, adj, []float32{42.3}, []int32{0}, 3, 16, index.Params{})
	if len(res) != 3 || res[0].ID != 42 {
		t.Fatalf("res = %v", res)
	}
	// Next two are 43 and 41 in some order by distance.
	if res[1].ID != 42-0 && res[1].ID != 43 {
		t.Fatalf("res = %v", res)
	}
}

func TestBeamSearchTraversesBlockedNodes(t *testing.T) {
	// Block everything except the far end: visit-first search must
	// still walk through blocked territory to reach it.
	s, adj := lineGraph(50)
	allow := bitset.New(50)
	allow.Set(49)
	res, _ := BeamSearch(s, adj, []float32{0}, []int32{0}, 1, 64, index.Params{Allow: allow})
	if len(res) != 1 || res[0].ID != 49 {
		t.Fatalf("blocked traversal failed: %v", res)
	}
}

func TestBeamSearchFilterFunc(t *testing.T) {
	s, adj := lineGraph(30)
	res, _ := BeamSearch(s, adj, []float32{10}, []int32{0}, 5, 64, index.Params{
		Filter: func(id int64) bool { return id%2 == 0 },
	})
	for _, r := range res {
		if r.ID%2 != 0 {
			t.Fatalf("filter violated: %v", res)
		}
	}
	if len(res) != 5 {
		t.Fatalf("want 5 results, got %d", len(res))
	}
}

func TestBeamSearchDuplicateEntries(t *testing.T) {
	s, adj := lineGraph(10)
	res, _ := BeamSearch(s, adj, []float32{5}, []int32{0, 0, 9}, 2, 8, index.Params{})
	if len(res) != 2 {
		t.Fatalf("res = %v", res)
	}
}

func TestGreedyWalkDescends(t *testing.T) {
	s, adj := lineGraph(100)
	tr := s.Begin([]float32{77.2})
	got := tr.GreedyWalk(adj, tr.Score([]int32{0})[0])
	tr.End(nil)
	if got.ID != 77 {
		t.Fatalf("greedy reached %v", got)
	}
}

func TestRobustPruneRNGRule(t *testing.T) {
	// Points: p at 0; candidates at 1, 1.9, -5. With alpha=1 the point
	// at 1.9 is pruned because it is closer to the kept point at 1
	// than to p (d2(1,1.9)=0.81 <= d2(p,1.9)=3.61); the point at -5
	// lies on the other side and survives (d2(1,-5)=36 > 25).
	data := []float32{0, 1, 1.9, -5}
	s := newSearcher(data, 1)
	cands := []topk.Result{
		{ID: 1, Dist: 1},
		{ID: 2, Dist: 1.9 * 1.9},
		{ID: 3, Dist: 25},
	}
	kept := RobustPrune(s, 0, cands, 8, 1.0)
	if len(kept) != 2 || kept[0] != 1 || kept[1] != 3 {
		t.Fatalf("kept = %v", kept)
	}
	// Degree cap respected.
	kept = RobustPrune(s, 0, cands, 1, 1.0)
	if len(kept) != 1 || kept[0] != 1 {
		t.Fatalf("capped kept = %v", kept)
	}
	// Larger alpha makes the prune condition alpha*d(b,c) <= d(p,c)
	// harder to satisfy, keeping more (longer) edges: pruning id 2
	// needs alpha*0.81 <= 3.61, so alpha=5 keeps it.
	kept = RobustPrune(s, 0, cands, 8, 5)
	if len(kept) != 3 {
		t.Fatalf("alpha=5 kept = %v", kept)
	}
}

func TestRobustPruneSkipsSelf(t *testing.T) {
	data := []float32{0, 1}
	s := newSearcher(data, 1)
	kept := RobustPrune(s, 0, []topk.Result{{ID: 0, Dist: 0}, {ID: 1, Dist: 1}}, 4, 1)
	if len(kept) != 1 || kept[0] != 1 {
		t.Fatalf("kept = %v", kept)
	}
}

func TestTopKClosest(t *testing.T) {
	cands := []topk.Result{{ID: 5, Dist: 1}, {ID: 7, Dist: 2}, {ID: 9, Dist: 3}}
	got := TopKClosest(cands, 2, 7)
	if len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("got = %v", got)
	}
}

func TestAvgDegree(t *testing.T) {
	_, adj := lineGraph(3) // degrees 1,2,1
	if d := AvgDegree(adj); d != 4.0/3.0 {
		t.Fatalf("AvgDegree = %v", d)
	}
	if AvgDegree(nil) != 0 {
		t.Fatal("empty graph degree should be 0")
	}
}
