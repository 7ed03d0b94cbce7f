package index_test

import (
	"context"
	"errors"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/vec"
)

// TestSearchStopsWithinABucket cancels an lsh, spectral and kdtree probe
// with a budget of 1 000 rows at the first candidate it admits: the
// probe finishes the bucket or leaf it is on and stops before the next,
// so it records at most one bucket (lsh, spectral) or one leaf's rows
// (kdtree, 16 rows a leaf), fewer rows than the whole probe scores, and
// returns context.Canceled.
func TestSearchStopsWithinABucket(t *testing.T) {
	ds := dataset.Clustered(4000, 16, 8, 0.4, 21)
	q := ds.Queries(1, 0.05, 22)[0]
	for _, name := range []string{"lsh", "spectral", "kdtree"} {
		idx, err := index.Build(name, ds.Data, ds.Count, ds.Dim, vec.L2, nil)
		if err != nil {
			t.Fatal(err)
		}
		var full index.SearchStats
		if _, err := idx.Search(q, 10, index.Params{Ef: 1000, Stats: &full}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		var st index.SearchStats
		res, err := idx.Search(q, 10, index.Params{Ef: 1000, Ctx: ctx, Stats: &st, Filter: func(int64) bool {
			if calls++; calls == 1 {
				cancel()
			}
			return true
		}})
		cancel()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("%s: %d hits, err %v; want context.Canceled", name, len(res), err)
		}
		if st.DistanceComps == 0 || st.DistanceComps >= full.DistanceComps {
			t.Fatalf("%s: scored %d rows after a cancel in the first bucket, the whole probe %d", name, st.DistanceComps, full.DistanceComps)
		}
		if name == "kdtree" {
			if st.DistanceComps > 16 {
				t.Fatalf("kdtree: scored %d rows after a cancel in the first leaf of at most 16", st.DistanceComps)
			}
		} else if st.BucketsProbed > 1 || full.BucketsProbed <= 1 {
			t.Fatalf("%s: %d buckets probed after a cancel in the first, %d by the whole probe", name, st.BucketsProbed, full.BucketsProbed)
		}
	}
}
