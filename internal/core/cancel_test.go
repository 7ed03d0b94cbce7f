package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/stats"
)

// TestCancelledSearchIsNotObserved: a search stopped by its context
// returns the context's error and leaves no mark on what the planner,
// the recall auditor and the tuner learn from — no query shape, no
// probe cost (its truncated comps would bias MeanProbeComps), no
// reservoir sample — while a completed search leaves all three.
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
	for _, policy := range []string{"", "plan:brute_force", "plan:single_stage", "plan:post_filter"} {
		ctx := &lateCtx{Context: dead}
		if _, err := c.Search(ctx, SearchRequest{Vector: ds.Row(1), K: 5, Policy: policy}); !errors.Is(err, context.Canceled) {
			t.Fatalf("policy %q: err %v, want context.Canceled", policy, err)
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
