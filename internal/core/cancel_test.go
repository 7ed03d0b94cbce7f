package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/obs"
	"vdbms/internal/stats"
)

// TestCancelledSearchIsNotObserved: a search stopped by its context
// returns the context's error and leaves no mark on what the planner,
// the recall auditor and the tuner learn from — no query shape, no
// probe cost (its truncated comps would bias MeanProbeComps), no
// reservoir sample — while a completed search leaves all three. Ranges
// and pages past a cursor stop and are observed the same way, and are
// never offered to the reservoir.
func TestCancelledSearchIsNotObserved(t *testing.T) {
	ds := dataset.Clustered(2000, 8, 8, 0.3, 6)
	c, err := NewCollection("cancel", Schema{Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Count; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("hnsw", map[string]int{"m": 8}); err != nil {
		t.Fatal(err)
	}
	r := stats.NewReservoirRand(16, func(int64) int64 { return 0 })
	c.sampler.Store(r)
	c.sampling.Store(true)

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	cursor := &Result{ID: 1, Dist: 0}
	for _, req := range []SearchRequest{
		{Vector: ds.Row(1), K: 5},
		{Vector: ds.Row(1), K: 5, Policy: "plan:brute_force"},
		{Vector: ds.Row(1), K: 5, Policy: "plan:single_stage"},
		{Vector: ds.Row(1), K: 5, Policy: "plan:post_filter"},
		{Vector: ds.Row(1), K: 5, Radius: 100},
		{Vector: ds.Row(1), K: 5, After: cursor},
		{Vector: ds.Row(1), K: 5, After: cursor, Policy: "plan:brute_force"},
	} {
		if _, err := c.Search(dead, req); !errors.Is(err, context.Canceled) {
			t.Fatalf("%+v, cancelled: err %v, want context.Canceled", req, err)
		}
		ctx := &lateCtx{Context: dead}
		if _, err := c.Search(ctx, req); !errors.Is(err, context.Canceled) {
			t.Fatalf("%+v: err %v, want context.Canceled", req, err)
		}
	}
	if _, n := c.stats.MeanProbeComps(); n != 0 || r.Seen() != 0 || c.Stats().Queries != 0 {
		t.Fatalf("cancelled searches observed: %d probes, %d samples offered, %d queries", n, r.Seen(), c.Stats().Queries)
	}

	if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(1), K: 5}); err != nil {
		t.Fatal(err)
	}
	if _, n := c.stats.MeanProbeComps(); n != 1 || r.Seen() != 1 || c.Stats().Queries != 1 {
		t.Fatalf("completed search: %d probes, %d samples offered, %d queries; want 1 each", n, r.Seen(), c.Stats().Queries)
	}

	// A served range and a served page are observed as searches —
	// counted, timed, their plan tallied — but never offered to the
	// recall reservoir, whose replay would score them as plain k-NN.
	searches, ranged := obs.SearchTotal.Value(), obs.SearchPlans.With("brute_force").Value()
	for _, req := range []SearchRequest{
		{Vector: ds.Row(1), K: 5, Radius: 100},
		{Vector: ds.Row(1), K: 5, After: cursor},
	} {
		if _, err := c.Search(bg, req); err != nil {
			t.Fatal(err)
		}
	}
	if got := obs.SearchTotal.Value() - searches; got != 2 || c.Stats().Queries != 3 {
		t.Fatalf("range and page: %d searches counted, %d queries recorded; want 2 and 3", got, c.Stats().Queries)
	}
	if obs.SearchPlans.With("brute_force").Value() == ranged {
		t.Fatal("the range's brute_force plan was not tallied")
	}
	if r.Seen() != 1 {
		t.Fatalf("%d samples offered; a range or a page must not reach the reservoir", r.Seen())
	}
}

// lateCtx is a cancelled context whose first Err call reports it live,
// so a search passes its entry check and meets the cancellation inside
// the executor, where a probe is cut short.
type lateCtx struct {
	context.Context
	checked atomic.Bool
}

func (c *lateCtx) Err() error {
	if !c.checked.Swap(true) {
		return nil
	}
	return c.Context.Err()
}
