// Package hnsw implements the hierarchical navigable small world graph
// of Malkov & Yashunin (Section 2.2(3)). Each node draws a maximum
// layer from an exponentially decaying distribution; upper layers form
// progressively sparser graphs traversed greedily to find a good entry
// point, and the bottom layer is beam-searched. Neighbor selection
// uses either the paper's pruning heuristic (RobustPrune with α=1) or
// naive k-closest, ablated in E6.
package hnsw

import (
	"math"
	"math/rand"

	"vdbms/internal/index"
	"vdbms/internal/index/graph"
	"vdbms/internal/topk"
	"vdbms/internal/tuner"
	"vdbms/internal/vec"
)

// Config controls construction.
type Config struct {
	M           int // max neighbors per node per layer; default DefaultM
	EfConstruct int // construction beam width; default DefaultEfConstruct(M)
	// NaiveSelection replaces the pruning heuristic (RobustPrune α=1)
	// with plain k-closest selection (E6 ablation).
	NaiveSelection bool
	Seed           int64
	Metric         vec.Metric
	// Quant, when enabled, stores a compressed copy of the vectors and
	// scores beam-search candidates on codes; the top rerank_k results
	// are re-scored with exact float32 distances (see index.QuantSpec).
	// The graph itself is always built at full precision.
	Quant index.QuantSpec
}

// builder is the state of one construction: the layers the inserts
// grow, mutable until Build freezes them for serving.
type builder struct {
	cfg    Config
	n      int
	s      *graph.Searcher
	layers []graph.Adjacency
	entry  int32
	maxLv  int
	ml     float64
}

// DefaultM is the M Build uses when Config.M is 0.
const DefaultM = 12

// DefaultEfConstruct is the construction beam width Build uses for M
// when Config.EfConstruct is 0.
func DefaultEfConstruct(m int) int { return 4 * m }

// Build inserts all vectors, then serves the frozen layers from the
// top layer's entry node.
func Build(data []float32, n, d int, cfg Config) (*graph.Index, error) {
	if cfg.M <= 0 {
		cfg.M = DefaultM
	}
	if cfg.M == 1 {
		// The level multiplier 1/ln M needs M >= 2: at 1 every level
		// draw overflowed and the graph came out with no layers.
		cfg.M = 2
	}
	if cfg.EfConstruct <= 0 {
		cfg.EfConstruct = DefaultEfConstruct(cfg.M)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	s, err := graph.NewSearcher("hnsw", cfg.Metric, data, n, d)
	if err != nil {
		return nil, err
	}
	h := &builder{cfg: cfg, n: n, s: s, ml: 1 / math.Log(float64(cfg.M))}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for id := 0; id < n; id++ {
		h.insert(int32(id), rng)
	}
	return graph.NewIndex("hnsw", s, h.layers, []int32{h.entry}, cfg.Quant)
}

func (h *builder) randomLevel(rng *rand.Rand) int {
	lv := int(-math.Log(rng.Float64()+1e-12) * h.ml)
	if lv > 30 {
		lv = 30
	}
	return lv
}

func (h *builder) ensureLayers(lv int) {
	for len(h.layers) <= lv {
		h.layers = append(h.layers, make(graph.Adjacency, h.n))
	}
}

func (h *builder) insert(id int32, rng *rand.Rand) {
	lv := h.randomLevel(rng)
	h.ensureLayers(lv)
	if id == 0 {
		h.entry = 0
		h.maxLv = lv
		return
	}
	// One traversal scratch serves the whole insert; the pool hands the
	// next insert the same one.
	t := h.s.Begin(h.s.Row(id))
	defer t.End(nil)
	// The entry is scored once: each layer starts from the scored
	// node(s) the layer above ended on.
	ep := t.Score([]int32{h.entry})[0]
	// Greedy descent through layers above the node's top layer.
	for l := h.maxLv; l > lv; l-- {
		ep = t.GreedyWalk(h.layers[l], ep)
	}
	// Beam search and connect on each layer from min(lv, maxLv) down.
	top := lv
	if top > h.maxLv {
		top = h.maxLv
	}
	entries := []topk.Result{ep}
	for l := top; l >= 0; l-- {
		found, _ := t.BeamSearch(h.layers[l], entries, h.cfg.EfConstruct, h.cfg.EfConstruct, &index.Params{}) // no Ctx: cannot fail
		m := h.cfg.M
		if l == 0 {
			m = 2 * h.cfg.M // standard HNSW allows 2M at the base layer
		}
		var nbrs []int32
		if h.cfg.NaiveSelection {
			nbrs = graph.TopKClosest(found, m, id)
		} else {
			nbrs = graph.RobustPrune(h.s, id, found, m, 1.0)
		}
		h.layers[l][id] = nbrs
		for _, nb := range nbrs {
			h.layers[l][nb] = append(h.layers[l][nb], id)
			if len(h.layers[l][nb]) > m {
				h.shrink(l, nb, m)
			}
		}
		// Next layer starts from this layer's results, scored; never
		// empty, since the entries were candidates too.
		entries = found
	}
	if lv > h.maxLv {
		h.maxLv = lv
		h.entry = id
	}
}

// shrink re-selects neighbors for an over-full node.
func (h *builder) shrink(l int, id int32, m int) {
	nbrs := h.layers[l][id]
	cands := make([]topk.Result, 0, len(nbrs))
	for _, nb := range nbrs {
		cands = append(cands, topk.Result{ID: int64(nb), Dist: h.s.DistRows(id, nb)})
	}
	graph.SortByDist(cands)
	if h.cfg.NaiveSelection {
		h.layers[l][id] = graph.TopKClosest(cands, m, id)
	} else {
		h.layers[l][id] = graph.RobustPrune(h.s, id, cands, m, 1.0)
	}
}

func init() {
	options := append([]index.Option{{Name: "m", Max: 256}, {Name: "efc", Max: 4096}, {Name: "naive", Max: 1}, index.SeedOption}, index.QuantOptions...)
	index.Register(index.Family{Name: "hnsw", Knob: tuner.KnobEf, Metrics: index.AnyMetric, Options: options, Build: func(data []float32, n, d int, metric vec.Metric, opts map[string]int) (index.Index, error) {
		return Build(data, n, d, Config{M: opts["m"], EfConstruct: opts["efc"], NaiveSelection: opts["naive"] != 0, Seed: int64(opts["seed"]), Metric: metric, Quant: index.QuantSpecOf(opts)})
	}})
}
