// Package knng implements k-nearest-neighbor graphs (Section 2.2(1)):
// exact O(N^2) construction for small collections, and the NN-Descent
// iterative refinement of KGraph (Dong et al.) that starts from a
// random graph and repeatedly examines neighbors-of-neighbors. An
// EFANNA-style mode seeds NN-Descent from a randomized KD-tree forest
// instead of a random graph, cutting the iterations needed.
package knng

import (
	"math/rand"
	"sort"

	"vdbms/internal/index"
	"vdbms/internal/index/graph"
	"vdbms/internal/index/tree"
	"vdbms/internal/topk"
	"vdbms/internal/tuner"
	"vdbms/internal/vec"
)

// Init selects how the graph is initialized.
type Init int

const (
	// RandomInit starts NN-Descent from a random K-regular graph.
	RandomInit Init = iota
	// TreeInit seeds neighbor lists from a randomized KD forest
	// (EFANNA).
	TreeInit
	// Exact builds the true KNNG by brute force (O(N^2)); no descent.
	Exact
)

// Config controls construction.
type Config struct {
	K        int // neighbors per node; default 10
	Init     Init
	MaxIter  int     // NN-Descent rounds; default 10
	SampleR  int     // reverse-neighbor sample size per node; default K
	Delta    float64 // early-stop threshold on update rate; default 0.001
	Seed     int64
	NumEntry int // random entry points for Search; default 8
	// Metric is the distance the graph is built and searched under.
	Metric vec.Metric
}

// Graph is a k-NN graph as constructed: its neighbor lists before
// Build freezes them for serving.
type Graph struct {
	cfg Config
	n   int
	s   *graph.Searcher
	adj graph.Adjacency
	// Iters is how many NN-Descent rounds ran (0 for Exact).
	Iters int
}

type nbr struct {
	id   int32
	dist float32
	nw   bool // "new" flag of NN-Descent incremental search
}

// Build constructs the graph and serves it from NumEntry strided entry
// points: a KNNG has no navigating node, so several entries make up for
// its weak long-range connectivity.
func Build(data []float32, n, d int, cfg Config) (*graph.Index, error) {
	g, err := Construct(data, n, d, cfg)
	if err != nil {
		return nil, err
	}
	entries := make([]int32, 0, g.cfg.NumEntry)
	stride := max(n/g.cfg.NumEntry, 1)
	for e := 0; e < n && len(entries) < g.cfg.NumEntry; e += stride {
		entries = append(entries, int32(e))
	}
	return graph.NewIndex("knng", g.s, []graph.Adjacency{g.adj}, entries, index.QuantSpec{})
}

// Construct builds the graph without freezing it, for a caller that
// goes on to change its edges (NSG starts from them).
func Construct(data []float32, n, d int, cfg Config) (*Graph, error) {
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if cfg.K >= n {
		cfg.K = n - 1
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 10
	}
	if cfg.SampleR <= 0 {
		cfg.SampleR = cfg.K
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 0.001
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.NumEntry <= 0 {
		cfg.NumEntry = 8
	}
	s, err := graph.NewSearcher("knng", cfg.Metric, data, n, d)
	if err != nil {
		return nil, err
	}
	g := &Graph{cfg: cfg, n: n, s: s}
	switch cfg.Init {
	case Exact:
		g.buildExact()
	default:
		g.buildDescent()
	}
	return g, nil
}

func (g *Graph) buildExact() {
	g.adj = make(graph.Adjacency, g.n)
	for i := 0; i < g.n; i++ {
		c := topk.NewCollector(g.cfg.K)
		for j := 0; j < g.n; j++ {
			if j == i {
				continue
			}
			c.Push(int64(j), g.s.DistRows(int32(i), int32(j)))
		}
		res := c.Results()
		nbrs := make([]int32, len(res))
		for x, r := range res {
			nbrs[x] = int32(r.ID)
		}
		g.adj[i] = nbrs
	}
}

func (g *Graph) buildDescent() {
	n, k := g.n, g.cfg.K
	rng := rand.New(rand.NewSource(g.cfg.Seed))
	lists := make([][]nbr, n)
	insert := func(v int32, cand int32, d float32) bool {
		l := lists[v]
		// Reject duplicates and worse-than-worst when full.
		for _, e := range l {
			if e.id == cand {
				return false
			}
		}
		if len(l) < k {
			lists[v] = append(l, nbr{cand, d, true})
			sortNbrs(lists[v])
			return true
		}
		if d >= l[k-1].dist {
			return false
		}
		l[k-1] = nbr{cand, d, true}
		sortNbrs(l)
		return true
	}

	// Initialization.
	switch g.cfg.Init {
	case TreeInit:
		forest, err := tree.Build(g.s.Data, n, g.s.Dim, tree.Config{
			Rule: tree.RandomTop5, Trees: 4, LeafSize: 16, Seed: g.cfg.Seed,
		})
		if err == nil {
			for v := 0; v < n; v++ {
				res, _ := forest.Search(g.s.Row(int32(v)), k+1, index.Params{Ef: 4 * k})
				for _, r := range res {
					if int32(r.ID) != int32(v) {
						insert(int32(v), int32(r.ID), r.Dist)
					}
				}
			}
		}
		fallthrough // fill any shortfall randomly
	default:
		for v := 0; v < n; v++ {
			for len(lists[v]) < k {
				cand := int32(rng.Intn(n))
				if cand == int32(v) {
					continue
				}
				insert(int32(v), cand, g.s.DistRows(int32(v), cand))
			}
		}
	}

	// NN-Descent rounds.
	for iter := 0; iter < g.cfg.MaxIter; iter++ {
		g.Iters = iter + 1
		// Collect forward "new" samples and reverse samples.
		fwd := make([][]int32, n)
		rev := make([][]int32, n)
		for v := 0; v < n; v++ {
			for li := range lists[v] {
				e := &lists[v][li]
				if e.nw {
					fwd[v] = append(fwd[v], e.id)
					e.nw = false
				}
				if len(rev[e.id]) < g.cfg.SampleR {
					rev[e.id] = append(rev[e.id], int32(v))
				}
			}
		}
		updates := 0
		join := func(a, b int32) {
			if a == b {
				return
			}
			d := g.s.DistRows(a, b)
			if insert(a, b, d) {
				updates++
			}
			if insert(b, a, d) {
				updates++
			}
		}
		for v := 0; v < n; v++ {
			local := append(append([]int32{}, fwd[v]...), rev[v]...)
			for i := 0; i < len(local); i++ {
				for j := i + 1; j < len(local); j++ {
					join(local[i], local[j])
				}
			}
		}
		if float64(updates) < g.cfg.Delta*float64(n*k) {
			break
		}
	}
	g.adj = make(graph.Adjacency, n)
	for v := 0; v < n; v++ {
		nbrs := make([]int32, len(lists[v]))
		for i, e := range lists[v] {
			nbrs[i] = e.id
		}
		g.adj[v] = nbrs
	}
}

func sortNbrs(l []nbr) {
	sort.Slice(l, func(i, j int) bool { return l[i].dist < l[j].dist })
}

// Accuracy measures the fraction of true k-NN edges present in the
// graph against an exact reference graph; KGraph's quality metric.
func (g *Graph) Accuracy(exact *Graph) float64 {
	hits, total := 0, 0
	for v := 0; v < g.n; v++ {
		truth := map[int32]struct{}{}
		for _, id := range exact.adj[v] {
			truth[id] = struct{}{}
		}
		for _, id := range g.adj[v] {
			if _, ok := truth[id]; ok {
				hits++
			}
		}
		total += len(exact.adj[v])
	}
	if total == 0 {
		return 1
	}
	return float64(hits) / float64(total)
}

// Adjacency exposes the neighbor lists (NSG builds on an approximate
// KNNG).
func (g *Graph) Adjacency() graph.Adjacency { return g.adj }

func init() {
	options := []index.Option{{Name: "k", Max: 64}, {Name: "iters", Max: 64}, {Name: "exact", Max: 1}, {Name: "treeinit", Max: 1}, index.SeedOption}
	index.Register(index.Family{Name: "knng", Knob: tuner.KnobEf, Metrics: index.AnyMetric, Options: options, Build: func(data []float32, n, d int, metric vec.Metric, opts map[string]int) (index.Index, error) {
		cfg := Config{K: opts["k"], MaxIter: opts["iters"], Seed: int64(opts["seed"]), Metric: metric}
		switch {
		case opts["exact"] != 0: // exact wins over treeinit
			cfg.Init = Exact
		case opts["treeinit"] != 0:
			cfg.Init = TreeInit
		}
		return Build(data, n, d, cfg)
	}})
}
