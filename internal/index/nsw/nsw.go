// Package nsw implements the navigable small world graph of Malkov et
// al. (Section 2.2(3)): nodes are inserted one at a time and connected
// to their k nearest neighbors among previously inserted nodes.
// Early-inserted long-range edges make the flat graph navigable; the
// hierarchical refinement lives in the sibling hnsw package.
package nsw

import (
	"vdbms/internal/index"
	"vdbms/internal/index/graph"
	"vdbms/internal/tuner"
	"vdbms/internal/vec"
)

// Config controls construction.
type Config struct {
	M           int // edges added per insertion; default 12
	EfConstruct int // beam width during insertion; default 4*M
	// Metric is the distance the graph is built and searched under.
	Metric vec.Metric
}

// Build inserts all vectors in order, then serves the graph from node
// 0, the oldest node, whose early long-range edges serve as the entry
// hub.
func Build(data []float32, n, d int, cfg Config) (*graph.Index, error) {
	if cfg.M <= 0 {
		cfg.M = 12
	}
	if cfg.EfConstruct <= 0 {
		cfg.EfConstruct = 4 * cfg.M
	}
	s, err := graph.NewSearcher("nsw", cfg.Metric, data, n, d)
	if err != nil {
		return nil, err
	}
	adj := make(graph.Adjacency, n)
	for id := 1; id < n; id++ {
		found, _ := graph.BeamSearch(s, adj[:id], s.Row(int32(id)), []int32{0}, cfg.M, cfg.EfConstruct, index.Params{}) // no Ctx: cannot fail
		for _, r := range found {
			nb := int32(r.ID)
			adj[id] = append(adj[id], nb)
			adj[nb] = append(adj[nb], int32(id)) // undirected
		}
	}
	return graph.NewIndex("nsw", s, []graph.Adjacency{adj}, []int32{0}, index.QuantSpec{})
}

func init() {
	options := []index.Option{{Name: "m", Max: 256}, {Name: "efc", Max: 4096}}
	index.Register(index.Family{Name: "nsw", Knob: tuner.KnobEf, Metrics: index.AnyMetric, Options: options, Build: func(data []float32, n, d int, metric vec.Metric, opts map[string]int) (index.Index, error) {
		return Build(data, n, d, Config{M: opts["m"], EfConstruct: opts["efc"], Metric: metric})
	}})
}
