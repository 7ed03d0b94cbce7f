package index_test

import (
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/vec"
)

// TestGraphStatsAgree: every query's SearchStats of a graph index
// counts at least one distance computation per node it visited, and
// HNSW counts its upper-layer descent both as greedy hops and as
// distance computations — it used to leave the descent out, so the
// planner's observed comps per probe and the tuner's frontier
// undercounted every query. Quantized variants add the exact re-rank.
func TestGraphStatsAgree(t *testing.T) {
	const n, d, searches = 3000, 16, 1000
	ds := dataset.Clustered(n, d, 8, 1.0, 5)
	qs := ds.Queries(searches, 0.5, 6)
	for _, tc := range []struct {
		name string
		opts map[string]int
	}{
		{"hnsw", map[string]int{"m": 8}},
		{"hnsw", map[string]int{"m": 8, "quant": 1, "rerank_k": 40}},
		{"nsw", nil},
		{"nsg", nil},
		{"nsg", map[string]int{"quant": 1, "rerank_k": 40}},
	} {
		idx, err := index.Build(tc.name, ds.Data, n, d, vec.L2, tc.opts)
		if err != nil {
			t.Fatalf("%s %v: %v", tc.name, tc.opts, err)
		}
		var hops int64
		for i, q := range qs {
			var ss index.SearchStats
			if _, err := idx.Search(q, 10, index.Params{Ef: 16 + i%64, Stats: &ss}); err != nil {
				t.Fatal(err)
			}
			if ss.DistanceComps < ss.NodesVisited || ss.NodesVisited == 0 {
				t.Fatalf("%s %v: %+v", tc.name, tc.opts, ss)
			}
			hops += ss.GreedyHops
		}
		if tc.name == "hnsw" && hops == 0 {
			t.Errorf("hnsw %v: no greedy hops over %d searches, the descent was not exercised", tc.opts, searches)
		}
	}
}
