package index

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"vdbms/internal/dataset"
	"vdbms/internal/topk"
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
	t.Cleanup(SetScanParts(0))
	for _, w := range []int{1, 2} {
		SetScanParts(w)
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		var st SearchStats
		res, err := f.Search(q, 10, Params{Ctx: ctx, Stats: &st, Filter: func(int64) bool {
			if calls.Add(1) == int64(scanBlock) {
				cancel()
			}
			return true
		}})
		cancel()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("%d parts: %d hits, err %v; want context.Canceled", w, len(res), err)
		}
		// scanBlock rows were gathered when the cancel came; each
		// partition then scores at most the block it is gathering.
		if limit := int64((w + 1) * scanBlock); st.DistanceComps == 0 || st.DistanceComps > limit {
			t.Fatalf("%d parts: scored %d of %d rows after a cancel in the first block, want 1..%d",
				w, st.DistanceComps, n, limit)
		}
	}

	// Cancelled before it starts, an unconstrained scan scores nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 2} {
		SetScanParts(w)
		var st SearchStats
		if _, err := f.Search(q, 10, Params{Ctx: ctx, Stats: &st}); !errors.Is(err, context.Canceled) || st.DistanceComps != 0 {
			t.Fatalf("%d parts, cancelled ctx: err %v after %d comps", w, err, st.DistanceComps)
		}
	}

	// Without a cancellation the same scan scores every row.
	SetScanParts(0)
	var st SearchStats
	if _, err := f.Search(q, 10, Params{Ctx: context.Background(), Stats: &st, Filter: func(int64) bool { return true }}); err != nil || st.DistanceComps != n {
		t.Fatalf("uncancelled scan: err %v, %d comps", err, st.DistanceComps)
	}
}

// lateCtx is a context whose deadline has passed but whose timer has
// not run — Done still open, Err still nil — as a query's context is
// while every CPU is busy scanning.
type lateCtx struct{ context.Context }

func (lateCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }
func (lateCtx) Done() <-chan struct{}       { return nil }
func (lateCtx) Err() error                  { return nil }

// TestScanStopsAtItsDeadline: a scan reads its deadline off the clock,
// so a full-column scan and a one-part tail scan whose deadline has
// passed score nothing and return context.DeadlineExceeded even before
// the context's timer has run.
func TestScanStopsAtItsDeadline(t *testing.T) {
	ds := dataset.Uniform(20_000, 4, 5)
	f, err := NewFlat(ds.Data, ds.Count, ds.Dim, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Row(0)
	for name, search := range map[string]func(Params) ([]topk.Result, error){
		"flat": func(p Params) ([]topk.Result, error) { return f.Search(q, 10, p) },
		"tail": func(p Params) ([]topk.Result, error) { return f.SearchTail(q, 10, p, 10_000, nil) },
	} {
		var st SearchStats
		res, err := search(Params{Ctx: lateCtx{context.Background()}, Stats: &st})
		if !errors.Is(err, context.DeadlineExceeded) || res != nil || st.DistanceComps != 0 {
			t.Fatalf("%s: %d hits, err %v after %d comps; want context.DeadlineExceeded and none", name, len(res), err, st.DistanceComps)
		}
	}
}
