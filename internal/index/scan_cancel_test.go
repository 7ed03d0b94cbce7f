package index_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/index/ivf"
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

// TestSplitIVFProbeStopsWithinAList cancels an ivfflat probe forced
// into two parts (SetScanParts) at the first member it admits: each
// part finishes the inverted list it is on and stops before its next,
// so the probe scores at most one list per part and returns
// context.Canceled.
func TestSplitIVFProbeStopsWithinAList(t *testing.T) {
	t.Cleanup(index.SetScanParts(2))
	ds := dataset.Clustered(20000, 8, 32, 0.3, 4)
	iv, err := ivf.Build(ds.Data, ds.Count, ds.Dim, ivf.Config{NList: 32, Metric: vec.L2})
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for l := range iv.NList() {
		largest = max(largest, len(iv.ListMembers(l)))
	}
	q := ds.Row(3)
	var full index.SearchStats
	if _, err := iv.Search(q, 10, index.Params{NProbe: 16, Stats: &full}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	var st index.SearchStats
	res, err := iv.Search(q, 10, index.Params{NProbe: 16, Ctx: ctx, Stats: &st, Filter: func(int64) bool {
		if calls.Add(1) == 1 {
			cancel()
		}
		return true
	}})
	cancel()
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("%d hits, err %v; want context.Canceled", len(res), err)
	}
	if st.Partitions != 2 {
		t.Fatalf("probe ran in %d parts, want 2", st.Partitions)
	}
	if limit := int64(2 * largest); st.DistanceComps > limit || st.DistanceComps >= full.DistanceComps {
		t.Fatalf("scored %d rows after a cancel in the first list (largest list %d, full probe %d)",
			st.DistanceComps, largest, full.DistanceComps)
	}
}
