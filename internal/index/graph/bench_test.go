package graph_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"vdbms/internal/bitset"
	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/index/hnsw"
	"vdbms/internal/topk"
)

var benchSink []topk.Result

// BenchmarkBeamSearch probes the graph the ann_search and
// filtered_search workloads of benchmark/ serve — 20 000 × 128-d rows in
// 64 clusters, hnsw m=16, queries jittered off stored rows — through
// HNSW.Search, which is the greedy descent plus one BeamSearch. The
// allow variant admits a random 10 % of the rows, so the traversal runs
// its constrained branch (two heaps, blocked nodes still expanded).
func BenchmarkBeamSearch(b *testing.B) {
	const n, d = 20000, 128
	ds := dataset.Clustered(n, d, 64, 1.0, 1)
	h, err := hnsw.Build(ds.Data, n, d, hnsw.Config{M: 16})
	if err != nil {
		b.Fatal(err)
	}
	qs := ds.Queries(1000, 0.5, 3)
	allow := bitset.New(n)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 {
			allow.Set(i)
		}
	}
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
