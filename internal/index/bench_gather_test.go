package index_test

import (
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/vec"
)

// BenchmarkGatherProbe times one top-10 query of the two families that
// score rows named by id: an ivfflat probe of 8 of 32 inverted lists,
// whose members go to the bounded gather kernel, and an hnsw search at
// ef 64, whose neighbour lists go to the unbounded one. The rows are
// 20 000 clustered 128-float vectors (64 clusters, σ = 1), far more
// than the caches hold; the queries cycle through 64 perturbed rows.
// It sizes the kernels' prefetch distances (vec's kernel_amd64.s).
func BenchmarkGatherProbe(b *testing.B) {
	ds := dataset.Clustered(20_000, 128, 64, 1.0, 1)
	qs := ds.Queries(64, 0.1, 2)
	for _, tc := range []struct {
		kind   string
		opts   map[string]int
		params index.Params
	}{
		{"ivfflat", map[string]int{"nlist": 32}, index.Params{NProbe: 8}},
		{"hnsw", map[string]int{"m": 16}, index.Params{Ef: 64}},
	} {
		idx, err := index.Build(tc.kind, ds.Data, ds.Count, ds.Dim, vec.L2, tc.opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(qs[i%len(qs)], 10, tc.params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
