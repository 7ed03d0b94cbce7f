package ivf

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/vec"
)

// TestSearchStopsWithinAList cancels an ivfflat probe at the first
// member it admits: every worker finishes the inverted list it is on
// and stops before its next, so the probe scores at most one list per
// worker (SearchStats comps are the witness) and returns
// context.Canceled.
func TestSearchStopsWithinAList(t *testing.T) {
	ds := dataset.Clustered(20000, 8, 32, 0.3, 4)
	iv, err := Build(ds.Data, ds.Count, ds.Dim, Config{NList: 32, Metric: vec.L2})
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for _, l := range iv.lists {
		largest = max(largest, len(l))
	}
	q := ds.Row(3)
	var full index.SearchStats
	if _, err := iv.Search(q, 10, index.Params{NProbe: 16, Stats: &full}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		var st index.SearchStats
		res, err := iv.Search(q, 10, index.Params{NProbe: 16, Parallelism: w, Ctx: ctx, Stats: &st, Filter: func(int64) bool {
			if calls.Add(1) == 1 {
				cancel()
			}
			return true
		}})
		cancel()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("parallelism %d: %d hits, err %v; want context.Canceled", w, len(res), err)
		}
		if limit := int64(w * largest); st.DistanceComps > limit || st.DistanceComps >= full.DistanceComps {
			t.Fatalf("parallelism %d: scored %d rows after a cancel in the first list (largest list %d, full probe %d)",
				w, st.DistanceComps, largest, full.DistanceComps)
		}
	}
}
