package graph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"vdbms/internal/bitset"
	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/index/graph"
	"vdbms/internal/index/hnsw"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

var benchSink []topk.Result

// benchGraph builds the graph the ann_search and filtered_search
// workloads of benchmark/ serve — 20 000 × 128-d rows in 64 clusters,
// hnsw m=16 — with 1 000 queries jittered off stored rows and an
// allowlist admitting a random 10 % of the rows.
func benchGraph(tb testing.TB) (*graph.Index, *dataset.Dataset, [][]float32, *bitset.Bitset) {
	const n, d = 20000, 128
	ds := dataset.Clustered(n, d, 64, 1.0, 1)
	h, err := hnsw.Build(ds.Data, n, d, hnsw.Config{M: 16})
	if err != nil {
		tb.Fatal(err)
	}
	allow := bitset.New(n)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 {
			allow.Set(i)
		}
	}
	return h, ds, ds.Queries(1000, 0.5, 3), allow
}

// TestBeamSearchFloatSweep holds BeamSearch to the oracle on the
// benchmark's graph: float data, where distances almost never tie, at
// every ef and predicate shape BenchmarkBeamSearch times — the same
// hits and the same per-query counts for every query. The searches
// start from node 0, so most cross the graph before they converge.
func TestBeamSearchFloatSweep(t *testing.T) {
	h, ds, qs, allow := benchGraph(t)
	if testing.Short() {
		qs = qs[:100]
	}
	sc, err := vec.NewScorer(vec.L2, ds.Data, ds.Count, ds.Dim)
	if err != nil {
		t.Fatal(err)
	}
	s := &graph.Searcher{Data: ds.Data, Dim: ds.Dim, Scorer: sc}
	base := h.Layers()[0]
	for _, ef := range []int{16, 64, 256} {
		for _, p := range []index.Params{{}, {Allow: allow}} {
			for i, q := range qs {
				var got, want index.SearchStats
				p.Stats = &want
				ref := graph.RefBeamSearch(s, base, q, []int32{0}, 10, ef, p)
				p.Stats = &got
				res, _ := graph.BeamSearch(s, base, q, []int32{0}, 10, ef, p)
				if !reflect.DeepEqual(res, ref) || got != want {
					t.Fatalf("ef=%d allow=%v query %d:\n got %v %+v\nwant %v %+v", ef, p.Allow != nil, i, res, got, ref, want)
				}
			}
		}
	}
}

// BenchmarkBeamSearch probes benchGraph through its Search, which is
// the greedy descent plus one BeamSearch. The allow variant admits a
// random 10 % of the rows, so the traversal runs its constrained branch
// (blocked nodes still expanded, admitted ones collected apart).
func BenchmarkBeamSearch(b *testing.B) {
	h, _, qs, allow := benchGraph(b)
	for _, ef := range []int{16, 64, 256} {
		for _, constrained := range []bool{false, true} {
			p := index.Params{Ef: ef}
			name := fmt.Sprintf("ef=%d/unconstrained", ef)
			if constrained {
				p.Allow = allow
				name = fmt.Sprintf("ef=%d/allow10", ef)
			}
			b.Run(name+"/serial", func(b *testing.B) {
				var st index.SearchStats
				p := p
				p.Stats = &st
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink, _ = h.Search(qs[i%len(qs)], 10, p)
				}
				b.ReportMetric(float64(st.DistanceComps)/float64(b.N), "comps/op")
			})
			b.Run(name+"/parallel", func(b *testing.B) {
				var comps, next atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					var st index.SearchStats
					p := p
					p.Stats = &st
					for pb.Next() {
						i := int(next.Add(1))
						if _, err := h.Search(qs[i%len(qs)], 10, p); err != nil {
							b.Error(err)
						}
					}
					comps.Add(st.DistanceComps)
				})
				b.ReportMetric(float64(comps.Load())/float64(b.N), "comps/op")
			})
		}
	}
}

// TestUpperLayerBytes holds the memory the budget accounts for the
// benchmark's graph: each layer above the base costs at most 8 bytes
// per node with a list plus 4 per edge (no offset per node of the
// graph), and the whole structure at most 1.40 MB.
func TestUpperLayerBytes(t *testing.T) {
	h, _, _, _ := benchGraph(t)
	for l, nh := range h.Layers()[1:] {
		nodes, edges := 0, 0
		for i := 0; i < nh.Len(); i++ {
			if e := len(nh.Neighbors(int32(i))); e > 0 {
				nodes++
				edges += e
			}
		}
		if got, limit := graph.NeighborhoodBytes(nh), 8*nodes+4*edges; got > limit {
			t.Errorf("layer %d: %d B for %d nodes and %d edges, want at most %d", l+1, got, nodes, edges, limit)
		}
		t.Logf("layer %d: %d nodes, %d edges, %d B", l+1, nodes, edges, graph.NeighborhoodBytes(nh))
	}
	structure, _ := h.MemoryBytes()
	t.Logf("structure %d B (base %d B)", structure, graph.NeighborhoodBytes(h.Layers()[0]))
	if structure > 1_400_000 {
		t.Errorf("structure %d B, want at most 1 400 000", structure)
	}
}
