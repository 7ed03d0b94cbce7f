// Package nsw implements the navigable small world graph of Malkov et
// al. (Section 2.2(3)): nodes are inserted one at a time and connected
// to their k nearest neighbors among previously inserted nodes.
// Early-inserted long-range edges make the flat graph navigable; the
// hierarchical refinement lives in the sibling hnsw package.
package nsw

import (
	"fmt"

	"vdbms/internal/index"
	"vdbms/internal/index/graph"
	"vdbms/internal/topk"
	"vdbms/internal/tuner"
	"vdbms/internal/vec"
)

// Config controls construction.
type Config struct {
	M           int // edges added per insertion; default 12
	EfConstruct int // beam width during insertion; default 4*M
	Seed        int64
	// Metric is the distance the graph is built and searched under.
	Metric vec.Metric
}

// NSW is the built index.
type NSW struct {
	cfg Config
	dim int
	n   int
	s   *graph.Searcher
	adj graph.Adjacency // construction-time mutable adjacency
	// frozen is the serving adjacency, slab-packed after construction.
	frozen graph.Neighborhoods
}

// Build inserts all vectors in order.
func Build(data []float32, n, d int, cfg Config) (*NSW, error) {
	if d <= 0 || n <= 0 || len(data) < n*d {
		return nil, fmt.Errorf("nsw: bad data shape n=%d d=%d len=%d", n, d, len(data))
	}
	if cfg.M <= 0 {
		cfg.M = 12
	}
	if cfg.EfConstruct <= 0 {
		cfg.EfConstruct = 4 * cfg.M
	}
	sc, err := vec.NewScorer(cfg.Metric, data, n, d)
	if err != nil {
		return nil, fmt.Errorf("nsw: %w", err)
	}
	g := &NSW{cfg: cfg, dim: d, n: n,
		s:   &graph.Searcher{Data: data, Dim: d, Scorer: sc},
		adj: make(graph.Adjacency, n),
	}
	for id := 1; id < n; id++ {
		q := g.s.Row(int32(id))
		found, _ := graph.BeamSearch(g.s, g.adj[:id], q, []int32{0}, cfg.M, cfg.EfConstruct, index.Params{}) // no Ctx: cannot fail
		for _, r := range found {
			nb := int32(r.ID)
			g.adj[id] = append(g.adj[id], nb)
			g.adj[nb] = append(g.adj[nb], int32(id)) // undirected
		}
	}
	g.frozen = graph.Freeze(g.adj)
	g.adj = nil // construction slices die here; serving uses the slab
	return g, nil
}

// Name implements index.Index.
func (g *NSW) Name() string { return "nsw" }

// Size implements index.Index.
func (g *NSW) Size() int { return g.n }

// AvgDegree reports mean degree (flat NSW exhibits the degree
// explosion HNSW's layering avoids; E6 reports it).
func (g *NSW) AvgDegree() float64 { return graph.AvgDegree(g.frozen) }

// MemoryBytes implements index.MemoryFootprint.
func (g *NSW) MemoryBytes() (structure, codes int64) {
	return int64(graph.NeighborhoodBytes(g.frozen)), 0
}

// Remap implements index.Remappable: a shallow clone searching data
// instead of the column the index was built over.
func (g *NSW) Remap(data []float32) (index.Index, bool) {
	if len(data) < g.n*g.dim {
		return nil, false
	}
	sc := g.s.Scorer.View()
	sc.Extend(data, g.n)
	g2 := &NSW{
		cfg: g.cfg, dim: g.dim, n: g.n,
		s:      &graph.Searcher{Data: data, Dim: g.dim, Scorer: sc},
		frozen: g.frozen,
	}
	return g2, true
}

// Search implements index.Index: beam search from node 0 (the oldest
// node, whose early long-range edges serve as the entry hub).
func (g *NSW) Search(q []float32, k int, p index.Params) ([]topk.Result, error) {
	if k <= 0 {
		return nil, index.ErrBadK
	}
	if len(q) != g.dim {
		return nil, fmt.Errorf("%w: query %d, index %d", index.ErrDim, len(q), g.dim)
	}
	ef := p.Ef
	if ef <= 0 {
		ef = 4 * k
		if ef < 32 {
			ef = 32
		}
	}
	return graph.BeamSearch(g.s, g.frozen, q, []int32{0}, k, ef, p)
}

func init() {
	options := []index.Option{{Name: "m", Max: 256}, {Name: "efc", Max: 4096}, index.SeedOption}
	index.Register(index.Family{Name: "nsw", Knob: tuner.KnobEf, Metrics: index.AnyMetric, Options: options, Build: func(data []float32, n, d int, metric vec.Metric, opts map[string]int) (index.Index, error) {
		return Build(data, n, d, Config{M: opts["m"], EfConstruct: opts["efc"], Seed: int64(opts["seed"]), Metric: metric})
	}})
}
