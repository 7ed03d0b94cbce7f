package index

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"vdbms/internal/dataset"
)

// TestFlatStopsWithinABlock cancels a brute-force scan over 200 000 rows
// while its first block is being gathered: every partition finishes the
// block it is on, polls, and stops, so the scan scores at most one
// further block per partition — SearchStats counts what it did score —
// and returns context.Canceled instead of a result.
func TestFlatStopsWithinABlock(t *testing.T) {
	const n = 200_000
	ds := dataset.Uniform(n, 4, 5)
	f, err := NewFlat(ds.Data, ds.Count, ds.Dim, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Row(0)
	for _, w := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		var st SearchStats
		res, err := f.Search(q, 10, Params{Ctx: ctx, Parallelism: w, Stats: &st, Filter: func(int64) bool {
			if calls.Add(1) == int64(scanBlock) {
				cancel()
			}
			return true
		}})
		cancel()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("parallelism %d: %d hits, err %v; want context.Canceled", w, len(res), err)
		}
		// scanBlock rows were gathered when the cancel came; each
		// partition then scores at most the block it is gathering.
		if limit := int64((w + 1) * scanBlock); st.DistanceComps == 0 || st.DistanceComps > limit {
			t.Fatalf("parallelism %d: scored %d of %d rows after a cancel in the first block, want 1..%d",
				w, st.DistanceComps, n, limit)
		}
	}

	// Cancelled before it starts, an unconstrained scan scores nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 2} {
		var st SearchStats
		if _, err := f.Search(q, 10, Params{Ctx: ctx, Parallelism: w, Stats: &st}); !errors.Is(err, context.Canceled) || st.DistanceComps != 0 {
			t.Fatalf("parallelism %d, cancelled ctx: err %v after %d comps", w, err, st.DistanceComps)
		}
	}

	// Without a cancellation the same scan scores every row.
	var st SearchStats
	if _, err := f.Search(q, 10, Params{Ctx: context.Background(), Stats: &st, Filter: func(int64) bool { return true }}); err != nil || st.DistanceComps != n {
		t.Fatalf("uncancelled scan: err %v, %d comps", err, st.DistanceComps)
	}
}
