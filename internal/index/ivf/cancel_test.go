package ivf

import (
	"context"
	"errors"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/vec"
)

// TestSearchStopsWithinAList cancels an ivfflat probe at the first
// member it admits: the probe finishes the inverted list it is on and
// stops before its next, so it scores at most one list (SearchStats
// comps are the witness) and returns context.Canceled. A probe split
// across parts is tested in package index, which can force the split.
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
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	var st index.SearchStats
	res, err := iv.Search(q, 10, index.Params{NProbe: 16, Ctx: ctx, Stats: &st, Filter: func(int64) bool {
		if calls++; calls == 1 {
			cancel()
		}
		return true
	}})
	cancel()
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("%d hits, err %v; want context.Canceled", len(res), err)
	}
	if st.DistanceComps > int64(largest) || st.DistanceComps >= full.DistanceComps {
		t.Fatalf("scored %d rows after a cancel in the first list (largest list %d, full probe %d)",
			st.DistanceComps, largest, full.DistanceComps)
	}
}
