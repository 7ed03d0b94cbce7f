package vdbms_test

import (
	"context"
	"testing"

	"vdbms"
	"vdbms/internal/dataset"
	"vdbms/internal/dist"
)

// BenchmarkE11Dist measures scatter-gather over 4 local shards, each
// an HNSW-indexed collection (E11). It is in the external test package
// because internal/dist imports vdbms.
func BenchmarkE11Dist(b *testing.B) {
	ds := dataset.Clustered(10000, 64, 32, 0.4, 1)
	qs := ds.Queries(64, 0.05, 2)
	shards, err := dist.BuildShards(vdbms.Schema{Dim: ds.Dim}, ds.Data, nil,
		dist.PartitionRandom(ds.Count, 4, 7), "hnsw", map[string]int{"m": 8})
	if err != nil {
		b.Fatal(err)
	}
	router := dist.NewRouter(shards, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		router.Search(context.Background(), vdbms.SearchRequest{Vector: qs[i%len(qs)], K: 10, Ef: 64}, 0) //nolint:errcheck
	}
}
