// Package hnsw implements the hierarchical navigable small world graph
// of Malkov & Yashunin (Section 2.2(3)). Each node draws a maximum
// layer from an exponentially decaying distribution; upper layers form
// progressively sparser graphs traversed greedily to find a good entry
// point, and the bottom layer is beam-searched. Neighbor selection
// uses either the paper's pruning heuristic (RobustPrune with α=1) or
// naive k-closest, ablated in E6.
package hnsw

import (
	"fmt"
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

// HNSW is the built index.
type HNSW struct {
	cfg    Config
	dim    int
	n      int
	s      *graph.Searcher
	layers []graph.Adjacency // construction-time mutable adjacency
	// frozen is the serving adjacency: after Build the per-node slices
	// of every layer are packed into slabs (two pointerless allocations
	// per layer), so a 10M-node graph stops carrying 10M slice headers
	// the GC rescans every cycle.
	frozen []graph.Neighborhoods
	nodeLv []int8 // top layer of each node
	entry  int32
	maxLv  int
	ml     float64
}

// DefaultM is the M Build uses when Config.M is 0.
const DefaultM = 12

// DefaultEfConstruct is the construction beam width Build uses for M
// when Config.EfConstruct is 0.
func DefaultEfConstruct(m int) int { return 4 * m }

// Build inserts all vectors.
func Build(data []float32, n, d int, cfg Config) (*HNSW, error) {
	if d <= 0 || n <= 0 || len(data) < n*d {
		return nil, fmt.Errorf("hnsw: bad data shape n=%d d=%d len=%d", n, d, len(data))
	}
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
	sc, err := vec.NewScorer(cfg.Metric, data, n, d)
	if err != nil {
		return nil, fmt.Errorf("hnsw: %w", err)
	}
	h := &HNSW{
		cfg: cfg, dim: d, n: n,
		s:      &graph.Searcher{Data: data, Dim: d, Scorer: sc},
		nodeLv: make([]int8, n),
		ml:     1 / math.Log(float64(cfg.M)),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for id := 0; id < n; id++ {
		h.insert(int32(id), rng)
	}
	h.frozen = make([]graph.Neighborhoods, len(h.layers))
	for l, adj := range h.layers {
		h.frozen[l] = graph.Freeze(adj)
	}
	h.layers = nil // construction slices die here; serving uses slabs
	if cfg.Quant.Enabled() {
		// Attach the quantized kernel only after construction: insertion
		// quality depends on exact distances, and RobustPrune compares
		// stored rows pairwise, which codes cannot serve.
		qsc, err := index.BuildQuantKernel(cfg.Quant, cfg.Metric, data, n, d)
		if err != nil {
			return nil, fmt.Errorf("hnsw: %w", err)
		}
		h.s.Quant = qsc
	}
	return h, nil
}

func (h *HNSW) randomLevel(rng *rand.Rand) int {
	lv := int(-math.Log(rng.Float64()+1e-12) * h.ml)
	if lv > 30 {
		lv = 30
	}
	return lv
}

func (h *HNSW) ensureLayers(lv int) {
	for len(h.layers) <= lv {
		h.layers = append(h.layers, make(graph.Adjacency, h.n))
	}
}

func (h *HNSW) insert(id int32, rng *rand.Rand) {
	lv := h.randomLevel(rng)
	h.nodeLv[id] = int8(lv)
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
func (h *HNSW) shrink(l int, id int32, m int) {
	nbrs := h.layers[l][id]
	cands := make([]topk.Result, 0, len(nbrs))
	for _, nb := range nbrs {
		cands = append(cands, topk.Result{ID: int64(nb), Dist: h.s.DistRows(id, nb)})
	}
	sortResults(cands)
	if h.cfg.NaiveSelection {
		h.layers[l][id] = graph.TopKClosest(cands, m, id)
	} else {
		h.layers[l][id] = graph.RobustPrune(h.s, id, cands, m, 1.0)
	}
}

func sortResults(rs []topk.Result) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Dist < rs[j-1].Dist; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// Name implements index.Index.
func (h *HNSW) Name() string { return "hnsw" }

// Size implements index.Index.
func (h *HNSW) Size() int { return h.n }

// MaxLayer returns the top layer index.
func (h *HNSW) MaxLayer() int { return h.maxLv }

// QuantizedScan implements index.Quantized.
func (h *HNSW) QuantizedScan() bool { return h.s.Quant != nil }

// ScoringBytes reports the resident bytes the traversal scoring path
// keeps hot (codes when quantized, float32 rows otherwise).
func (h *HNSW) ScoringBytes() int { return h.s.ScoringBytes(h.n) }

// BaseLayer returns the bottom layer's adjacency, the graph the beam
// search of every query runs on.
func (h *HNSW) BaseLayer() graph.Neighborhoods { return h.frozen[0] }

// MemoryBytes implements index.MemoryFootprint: the slab-packed layer
// adjacency plus per-node levels, and the quantized code block.
func (h *HNSW) MemoryBytes() (structure, codes int64) {
	for _, l := range h.frozen {
		structure += int64(graph.NeighborhoodBytes(l))
	}
	structure += int64(len(h.nodeLv))
	if h.s.Quant != nil {
		codes = int64(h.s.Quant.BytesPerRow()) * int64(h.n)
	}
	return structure, codes
}

// Remap implements index.Remappable: a shallow clone searching data
// instead of the column the index was built over. The frozen layers,
// node levels, and quantized codes are immutable and shared; only the
// Searcher (and its scorer's data pointer) is fresh.
func (h *HNSW) Remap(data []float32) (index.Index, bool) {
	if len(data) < h.n*h.dim {
		return nil, false
	}
	sc := h.s.Scorer.View()
	sc.Extend(data, h.n)
	h2 := &HNSW{
		cfg: h.cfg, dim: h.dim, n: h.n,
		s:      &graph.Searcher{Data: data, Dim: h.dim, Scorer: sc, Quant: h.s.Quant},
		frozen: h.frozen,
		nodeLv: h.nodeLv,
		entry:  h.entry,
		maxLv:  h.maxLv,
		ml:     h.ml,
	}
	return h2, true
}

// Search implements index.Index: greedy descent through the upper
// layers, then beam search with width p.Ef on layer 0.
func (h *HNSW) Search(q []float32, k int, p index.Params) ([]topk.Result, error) {
	if k <= 0 {
		return nil, index.ErrBadK
	}
	if len(q) != h.dim {
		return nil, fmt.Errorf("%w: query %d, index %d", index.ErrDim, len(q), h.dim)
	}
	ef := p.Ef
	if ef <= 0 {
		ef = 4 * k
		if ef < 32 {
			ef = 32
		}
	}
	kk := k
	if h.s.Quant != nil {
		// Quantized traversal: widen the candidate set to rerank_k and
		// re-score it exactly below.
		kk = h.cfg.Quant.ResolveRerankK(p, k, h.n)
		if ef < kk {
			ef = kk
		}
	}
	// The descent and the base-layer search share one scratch, so the
	// query's stats count the descent's comparisons too.
	t := h.s.Begin(q)
	ep := t.Score([]int32{h.entry})[0]
	for l := h.maxLv; l >= 1; l-- {
		ep = t.GreedyWalk(h.frozen[l], ep)
		if p.Stats != nil {
			p.Stats.GreedyHops++
		}
	}
	res, err := t.BeamSearch(h.frozen[0], []topk.Result{ep}, kk, ef, &p)
	t.End(p.Stats)
	if err != nil {
		return nil, err
	}
	if h.s.Quant != nil {
		if p.Stats != nil {
			p.Stats.DistanceComps += int64(len(res))
		}
		res = index.RerankExact(h.s.Scorer, q, res, k)
	}
	return res, nil
}

func init() {
	options := append([]index.Option{{Name: "m", Max: 256}, {Name: "efc", Max: 4096}, {Name: "naive", Max: 1}, index.SeedOption}, index.QuantOptions...)
	index.Register(index.Family{Name: "hnsw", Knob: tuner.KnobEf, Metrics: index.AnyMetric, Options: options, Build: func(data []float32, n, d int, metric vec.Metric, opts map[string]int) (index.Index, error) {
		return Build(data, n, d, Config{M: opts["m"], EfConstruct: opts["efc"], NaiveSelection: opts["naive"] != 0, Seed: int64(opts["seed"]), Metric: metric, Quant: index.QuantSpecOf(opts)})
	}})
}
