package core

import (
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/filter"
)

// TestCollectionStatsWiring checks the serving paths feed the online
// statistics: mutation counters, query shapes, filter selectivity,
// and ANN probe cost all show up in Stats().
func TestCollectionStatsWiring(t *testing.T) {
	ds := dataset.Uniform(2000, 8, 7)
	c, err := NewCollection("s", Schema{
		Dim:        8,
		Attributes: map[string]filter.Kind{"cat": filter.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Count; i++ {
		if _, err := c.Insert(ds.Row(i), map[string]filter.Value{"cat": filter.IntV(int64(i % 10))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.UpdateVector(3, ds.Row(4)); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex("ivfflat", map[string]int{"nlist": 16}); err != nil {
		t.Fatal(err)
	}

	preds := []filter.Predicate{{Column: "cat", Op: filter.Eq, Value: filter.IntV(3)}}
	for i := 0; i < 4; i++ {
		if _, _, err := c.Search(Request{Vector: ds.Row(i), K: 5, NProbe: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Search(Request{Vector: ds.Row(0), K: 5, Preds: preds}); err != nil {
		t.Fatal(err)
	}

	s := c.Stats()
	if s.Rows != 2000 || s.Live != 1999 || s.Deleted != 1 || s.Dim != 8 {
		t.Fatalf("row section = %+v", s)
	}
	if s.Inserts != 2000 || s.Updates != 1 || s.Deletes != 1 {
		t.Fatalf("mutation counters = ins %d upd %d del %d", s.Inserts, s.Updates, s.Deletes)
	}
	if s.Queries != 5 {
		t.Fatalf("queries = %d, want 5", s.Queries)
	}
	if s.FilteredFraction != 0.2 {
		t.Fatalf("filtered fraction = %v, want 0.2", s.FilteredFraction)
	}
	if s.K.Count != 5 || s.K.Mean != 5 {
		t.Fatalf("k distribution = %+v", s.K)
	}
	if s.ProbeCount == 0 || s.MeanProbeComps <= 0 {
		t.Fatalf("probe stats = %d probes, %.1f comps", s.ProbeCount, s.MeanProbeComps)
	}
	sel, ok := s.Selectivity["cat"]
	if !ok || sel.Count == 0 {
		t.Fatalf("selectivity for cat missing: %+v", s.Selectivity)
	}
	// cat = 3 admits ~10% of rows; the sampled estimate is coarse but
	// must land in a sane band.
	if sel.Mean <= 0 || sel.Mean >= 0.5 {
		t.Fatalf("cat selectivity mean = %v, want (0, 0.5)", sel.Mean)
	}
}

// TestMeasuredSelectivityRecording: the selectivity histograms hold
// survivor fractions measured during execution — exact for pre-filter
// bitmaps and exhaustive scans — and the planner's sampled estimate
// alone never feeds them.
func TestMeasuredSelectivityRecording(t *testing.T) {
	ds := dataset.Uniform(2000, 8, 11)
	c, err := NewCollection("m", Schema{
		Dim:        8,
		Attributes: map[string]filter.Kind{"cat": filter.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Count; i++ {
		if _, err := c.Insert(ds.Row(i), map[string]filter.Value{"cat": filter.IntV(int64(i % 10))}); err != nil {
			t.Fatal(err)
		}
	}
	preds := []filter.Predicate{{Column: "cat", Op: filter.Eq, Value: filter.IntV(3)}}
	const trueSel = 0.1 // cat=3 admits exactly 200 of 2000 rows

	// Pre-filter materializes the bitmap: its cardinality over N is the
	// exact selectivity and must be recorded as such.
	if _, _, err := c.Search(Request{Vector: ds.Row(0), K: 5, Preds: preds, Policy: "plan:pre_filter"}); err != nil {
		t.Fatal(err)
	}
	sel := c.Stats().Selectivity["cat"]
	if sel.Count != 1 || sel.Mean != trueSel {
		t.Fatalf("after pre_filter: count=%d mean=%v, want 1/%v", sel.Count, sel.Mean, trueSel)
	}

	// Brute force evaluates the predicate on every live row: the
	// counted pass rate is exact too.
	if _, _, err := c.Search(Request{Vector: ds.Row(1), K: 5, Preds: preds, Policy: "plan:brute_force"}); err != nil {
		t.Fatal(err)
	}
	sel = c.Stats().Selectivity["cat"]
	if sel.Count != 2 || sel.Mean != trueSel {
		t.Fatalf("after brute_force: count=%d mean=%v, want 2/%v", sel.Count, sel.Mean, trueSel)
	}

	// Post-filter with a small over-fetch examines too few rows to be a
	// useful sample and must record nothing.
	if _, _, err := c.Search(Request{Vector: ds.Row(2), K: 5, Preds: preds, Policy: "plan:post_filter", Alpha: 2}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Selectivity["cat"].Count; got != 2 {
		t.Fatalf("post_filter over-fetch of 10 recorded: count=%d, want 2", got)
	}

	// Planning alone computes only the sampled estimate; it must not
	// touch the histograms.
	if _, err := c.snap.Load().env.Plan(5, preds, "cost", nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Selectivity["cat"].Count; got != 2 {
		t.Fatalf("Plan() recorded into the histograms: count=%d, want 2", got)
	}
}

// TestAdaptivePolicy: once enough probes and selectivity observations
// accumulate, the "adaptive" policy plans with measured statistics and
// still returns correct results.
func TestAdaptivePolicy(t *testing.T) {
	ds := dataset.Uniform(3000, 8, 9)
	c, err := NewCollection("a", Schema{
		Dim:        8,
		Attributes: map[string]filter.Kind{"cat": filter.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Count; i++ {
		if _, err := c.Insert(ds.Row(i), map[string]filter.Value{"cat": filter.IntV(int64(i % 4))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("ivfflat", map[string]int{"nlist": 16}); err != nil {
		t.Fatal(err)
	}
	preds := []filter.Predicate{{Column: "cat", Op: filter.Eq, Value: filter.IntV(1)}}
	// Warm the statistics past both observation thresholds: a serial
	// visit-first probe records its cost and (only when serial — the
	// counters are not shared across workers) its measured pass rate.
	for i := 0; i < 40; i++ {
		if _, _, err := c.Search(Request{Vector: ds.Row(i), K: 5, Preds: preds, NProbe: 4, Policy: "plan:single_stage", Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.ProbeCount < 16 || s.Selectivity["cat"].Count < 32 {
		t.Fatalf("warm-up insufficient: probes=%d selObs=%d", s.ProbeCount, s.Selectivity["cat"].Count)
	}
	res, plan, err := c.Search(Request{Vector: ds.Row(0), K: 5, Preds: preds, Policy: "adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("adaptive search returned %d hits, want 5", len(res))
	}
	// Every hit must satisfy the predicate.
	for _, r := range res {
		if r.ID%4 != 1 {
			t.Fatalf("hit %d violates cat=1", r.ID)
		}
	}
	if plan.Plan.Kind.String() == "" {
		t.Fatal("no plan reported")
	}
}
