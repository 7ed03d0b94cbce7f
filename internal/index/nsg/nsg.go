// Package nsg implements monotonic-search-network construction
// (Section 2.2(2)): both the NSG recipe of Fu et al. (initialize from
// an approximate KNNG, designate the medoid as navigating node, run a
// search trial per node and prune with the MRNG rule) and the Vamana
// recipe of DiskANN (random initial graph, two α passes). The two
// share the navigating-node trial structure; Variant selects the
// initialization and α schedule.
package nsg

import (
	"fmt"
	"math/rand"
	"slices"

	"vdbms/internal/index"
	"vdbms/internal/index/graph"
	"vdbms/internal/index/knng"
	"vdbms/internal/topk"
	"vdbms/internal/tuner"
	"vdbms/internal/vec"
)

// Variant selects the construction recipe.
type Variant int

const (
	// NSG initializes from an approximate KNNG and prunes with the
	// MRNG rule (alpha = 1).
	NSG Variant = iota
	// Vamana initializes randomly and runs two passes, the second
	// with alpha > 1 to keep long-range edges.
	Vamana
	// FANNG runs a large number of search trials over random
	// (source, target) pairs: whenever greedy traversal stalls before
	// reaching the target, an edge is added from the stall point and
	// the stall point's edges are re-pruned (Harwood & Drummond).
	FANNG
)

// String returns the family name the variant registers under.
func (v Variant) String() string {
	switch v {
	case Vamana:
		return "vamana"
	case FANNG:
		return "fanng"
	default:
		return "nsg"
	}
}

// Config controls construction.
type Config struct {
	Variant Variant
	R       int     // max out-degree; default 16
	L       int     // search-trial beam width; default 2*R
	Alpha   float32 // Vamana's second-pass alpha; default 1.2
	Seed    int64
	// KNNGK is the neighbor count of the initial KNNG (NSG variant);
	// default R.
	KNNGK int
	// Trials is the number of FANNG search trials as a multiple of n;
	// default 8.
	Trials int
	// Metric is the distance the graph is built and searched under.
	Metric vec.Metric
	// Quant optionally stores a compressed copy of the vectors for
	// traversal scoring with exact re-rank (see index.QuantSpec). The
	// graph is always constructed at full precision.
	Quant index.QuantSpec
}

// builder is the state of one construction: the graph the passes
// grow, mutable until Build freezes it for serving.
type builder struct {
	cfg    Config
	n      int
	s      *graph.Searcher
	adj    graph.Adjacency
	medoid int32
}

// Build constructs the graph, then serves it from the medoid.
func Build(data []float32, n, d int, cfg Config) (*graph.Index, error) {
	if cfg.R <= 0 {
		cfg.R = 16
	}
	if cfg.L <= 0 {
		cfg.L = 2 * cfg.R
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 1.2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.KNNGK <= 0 {
		cfg.KNNGK = cfg.R
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 8
	}
	s, err := graph.NewSearcher("nsg", cfg.Metric, data, n, d)
	if err != nil {
		return nil, err
	}
	g := &builder{cfg: cfg, n: n, s: s}
	g.medoid = g.findMedoid()

	switch cfg.Variant {
	case NSG:
		kg, err := knng.Construct(data, n, d, knng.Config{K: cfg.KNNGK, Seed: cfg.Seed, MaxIter: 8, Metric: cfg.Metric})
		if err != nil {
			return nil, fmt.Errorf("nsg: knng init: %w", err)
		}
		g.adj = kg.Adjacency()
		g.pass(1.0)
	case Vamana:
		g.adj = randomAdj(n, cfg.R, cfg.Seed)
		g.pass(1.0)
		g.pass(cfg.Alpha)
	case FANNG:
		g.adj = make(graph.Adjacency, n)
		g.buildFANNG()
	default:
		return nil, fmt.Errorf("nsg: unknown variant %d", cfg.Variant)
	}
	g.connectOrphans()
	return graph.NewIndex(cfg.Variant.String(), s, []graph.Adjacency{g.adj}, []int32{g.medoid}, cfg.Quant)
}

func randomAdj(n, r int, seed int64) graph.Adjacency {
	rng := rand.New(rand.NewSource(seed))
	adj := make(graph.Adjacency, n)
	for v := 0; v < n; v++ {
		seen := map[int32]struct{}{int32(v): {}}
		for len(adj[v]) < r && len(adj[v]) < n-1 {
			c := int32(rng.Intn(n))
			if _, dup := seen[c]; dup {
				continue
			}
			seen[c] = struct{}{}
			adj[v] = append(adj[v], c)
		}
	}
	return adj
}

// findMedoid returns the point closest to the dataset centroid — the
// navigating node both NSG and Vamana route every trial through.
func (g *builder) findMedoid() int32 {
	d := g.s.Dim
	cent := make([]float32, d)
	for i := 0; i < g.n; i++ {
		row := g.s.Row(int32(i))
		for j := range cent {
			cent[j] += row[j]
		}
	}
	inv := 1 / float32(g.n)
	for j := range cent {
		cent[j] *= inv
	}
	bq := g.s.Bind(cent)
	best, bestD := int32(0), float32(0)
	for i := 0; i < g.n; i++ {
		dd := bq.Dist(int32(i))
		if i == 0 || dd < bestD {
			best, bestD = int32(i), dd
		}
	}
	return best
}

// pass runs one construction sweep: for every node, a search trial
// from the medoid gathers candidates (the visited set approximates
// nodes on the search path), then RobustPrune selects edges and
// reverse edges are inserted with degree capping.
func (g *builder) pass(alpha float32) {
	for v := 0; v < g.n; v++ {
		q := g.s.Row(int32(v))
		visited, _ := graph.BeamSearch(g.s, g.adj, q, []int32{g.medoid}, g.cfg.L, g.cfg.L, index.Params{}) // no Ctx: cannot fail
		// Include current neighbors so established edges compete.
		cands := visited
		for _, nb := range g.adj[v] {
			cands = append(cands, topk.Result{ID: int64(nb), Dist: g.s.DistRows(int32(v), nb)})
		}
		graph.SortByDist(cands)
		cands = dedupe(cands)
		g.adj[v] = graph.RobustPrune(g.s, int32(v), cands, g.cfg.R, alpha)
		for _, nb := range g.adj[v] {
			g.addReverse(nb, int32(v), alpha)
		}
	}
}

// addReverse inserts edge nb -> v, re-pruning if the degree cap is
// exceeded.
func (g *builder) addReverse(nb, v int32, alpha float32) {
	for _, e := range g.adj[nb] {
		if e == v {
			return
		}
	}
	g.adj[nb] = append(g.adj[nb], v)
	if len(g.adj[nb]) <= g.cfg.R {
		return
	}
	cands := make([]topk.Result, 0, len(g.adj[nb]))
	for _, e := range g.adj[nb] {
		cands = append(cands, topk.Result{ID: int64(e), Dist: g.s.DistRows(nb, e)})
	}
	graph.SortByDist(cands)
	g.adj[nb] = graph.RobustPrune(g.s, nb, cands, g.cfg.R, alpha)
}

// buildFANNG grows the graph with occlusion-pruned edges discovered by
// random search trials: pick random (source, target); greedily walk
// from source toward target; where the walk stalls short of the
// target, add an edge stall -> target and re-prune the stall node.
// Early trials on an empty graph stall immediately at the source,
// seeding first edges; later trials only patch genuine gaps, so the
// update rate decays as the graph approaches monotonicity.
func (g *builder) buildFANNG() {
	rng := rand.New(rand.NewSource(g.cfg.Seed + 101))
	trials := g.cfg.Trials * g.n
	for trial := 0; trial < trials; trial++ {
		src := int32(rng.Intn(g.n))
		tgt := int32(rng.Intn(g.n))
		if src == tgt {
			continue
		}
		t := g.s.Begin(g.s.Row(tgt))
		stall := t.GreedyWalk(g.adj, t.Score([]int32{src})[0])
		t.End(nil)
		if stall.Dist == 0 || int32(stall.ID) == tgt {
			continue // reached the target (distance 0 at tgt itself)
		}
		g.addReverse(int32(stall.ID), tgt, 1.0)
	}
}

// connectOrphans guarantees reachability from the medoid by attaching
// any unreachable node to its nearest reachable neighbor — NSG's tree
// spanning step, simplified.
func (g *builder) connectOrphans() {
	reach := make([]bool, g.n)
	stack := []int32{g.medoid}
	reach[g.medoid] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range g.adj[v] {
			if !reach[nb] {
				reach[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	for v := 0; v < g.n; v++ {
		if reach[v] {
			continue
		}
		// Attach from the closest reachable node found by beam search.
		res, _ := graph.BeamSearch(g.s, g.adj, g.s.Row(int32(v)), []int32{g.medoid}, 1, g.cfg.L, index.Params{}) // no Ctx: cannot fail
		if len(res) == 0 {
			res = []topk.Result{{ID: int64(g.medoid)}}
		}
		src := int32(res[0].ID)
		g.adj[src] = append(g.adj[src], int32(v))
		// Mark the newly attached subtree reachable.
		stack = append(stack, int32(v))
		reach[v] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range g.adj[x] {
				if !reach[nb] {
					reach[nb] = true
					stack = append(stack, nb)
				}
			}
		}
	}
}

func dedupe(rs []topk.Result) []topk.Result {
	seen := make(map[int64]struct{}, len(rs))
	out := rs[:0]
	for _, r := range rs {
		if _, dup := seen[r.ID]; dup {
			continue
		}
		seen[r.ID] = struct{}{}
		out = append(out, r)
	}
	return out
}

func init() {
	// Each variant declares the keys its build reads: alpha100 (Vamana's
	// alpha in hundredths) and trials (FANNG's) belong to one variant each.
	degree := []index.Option{{Name: "r", Max: 64}, {Name: "l", Max: 1024}}
	for variant, own := range map[Variant][]index.Option{NSG: nil, Vamana: {{Name: "alpha100", Max: 1000}}, FANNG: {{Name: "trials", Max: 64}}} {
		options := slices.Concat(degree, own, []index.Option{index.SeedOption}, index.QuantOptions)
		index.Register(index.Family{Name: variant.String(), Knob: tuner.KnobEf, Metrics: index.AnyMetric, Options: options, Build: func(data []float32, n, d int, metric vec.Metric, opts map[string]int) (index.Index, error) {
			return Build(data, n, d, Config{Variant: variant, R: opts["r"], L: opts["l"], Alpha: float32(opts["alpha100"]) / 100, Trials: opts["trials"],
				Seed: int64(opts["seed"]), Metric: metric, Quant: index.QuantSpecOf(opts)})
		}})
	}
}
