package core

import (
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/filter"
	"vdbms/internal/obs"
	"vdbms/internal/planner"
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

	filters := []Filter{{Column: "cat", Op: "=", Value: 3}}
	for i := 0; i < 4; i++ {
		if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(i), K: 5, NProbe: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(0), K: 5, Filters: filters}); err != nil {
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
	if s.ANNProbes == 0 || s.ANNProbeMeanComps <= 0 {
		t.Fatalf("probe stats = %d probes, %.1f comps", s.ANNProbes, s.ANNProbeMeanComps)
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
	filters := []Filter{{Column: "cat", Op: "=", Value: 3}}
	preds := []filter.Predicate{{Column: "cat", Op: filter.Eq, Value: filter.IntV(3)}}
	const trueSel = 0.1 // cat=3 admits exactly 200 of 2000 rows

	// Pre-filter materializes the bitmap: its cardinality over N is the
	// exact selectivity and must be recorded as such.
	if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(0), K: 5, Filters: filters, Policy: "plan:pre_filter"}); err != nil {
		t.Fatal(err)
	}
	sel := c.Stats().Selectivity["cat"]
	if sel.Count != 1 || sel.Mean != trueSel {
		t.Fatalf("after pre_filter: count=%d mean=%v, want 1/%v", sel.Count, sel.Mean, trueSel)
	}

	// Brute force evaluates the predicate on every live row: the
	// counted pass rate is exact too.
	if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(1), K: 5, Filters: filters, Policy: "plan:brute_force"}); err != nil {
		t.Fatal(err)
	}
	sel = c.Stats().Selectivity["cat"]
	if sel.Count != 2 || sel.Mean != trueSel {
		t.Fatalf("after brute_force: count=%d mean=%v, want 2/%v", sel.Count, sel.Mean, trueSel)
	}

	// Post-filter with a small over-fetch examines too few rows to be a
	// useful sample and must record nothing.
	if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(2), K: 5, Filters: filters, Policy: "plan:post_filter", Alpha: 2}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Selectivity["cat"].Count; got != 2 {
		t.Fatalf("post_filter over-fetch of 10 recorded: count=%d, want 2", got)
	}

	// Planning alone computes only the sampled estimate; it must not
	// touch the histograms.
	if _, err := c.snap.Load().env.Plan(5, preds, "", nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Selectivity["cat"].Count; got != 2 {
		t.Fatalf("Plan() recorded into the histograms: count=%d, want 2", got)
	}
}

// TestAdaptivePolicy: the default policy plans with static inputs while
// the collection is cold and with its measured probe cost and attribute
// cost ratio once enough probes and scans back them. The traced plan
// span says which, and the results stay correct either way.
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
	filters := []Filter{{Column: "cat", Op: "=", Value: 1}}
	// planSpan runs one default-policy search and returns its plan span.
	planSpan := func() obs.SpanReport {
		t.Helper()
		res, err := c.Search(bg, SearchRequest{Vector: ds.Row(0), K: 5, Filters: filters, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Hits) != 5 {
			t.Fatalf("search returned %d hits, want 5", len(res.Hits))
		}
		for _, r := range res.Hits {
			if r.ID%4 != 1 {
				t.Fatalf("hit %d violates cat=1", r.ID)
			}
		}
		for _, sp := range res.Trace.Children {
			if sp.Stage == "plan" {
				return sp
			}
		}
		t.Fatal("no plan span")
		return obs.SpanReport{}
	}

	cold := planSpan()
	if cold.Tags["index_comps_source"] != "default" || cold.Tags["attr_cost_source"] != "default" {
		t.Fatalf("cold plan inputs: %v", cold.Tags)
	}
	if got, want := cold.Annotations["index_comps"], int64(16*55); got != want { // ceil(sqrt(3000)) = 55
		t.Fatalf("cold index_comps = %d, want %d", got, want)
	}

	// Warm the statistics past both observation thresholds: index
	// probes for the probe cost, exhaustive scans (a bitmap build beside
	// a flat probe) for the attribute-cost ratio.
	for i := 0; i < 20; i++ {
		if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(i), K: 5, Filters: filters, NProbe: 4, Policy: "plan:single_stage"}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(i), K: 5, Filters: filters, Policy: "plan:brute_force"}); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.ANNProbes < planner.MinProbeObservations || s.Calibration.AttrScans < planner.MinCostObservations {
		t.Fatalf("warm-up insufficient: probes=%d attr scans=%d", s.ANNProbes, s.Calibration.AttrScans)
	}
	warm := planSpan()
	if warm.Tags["index_comps_source"] != "measured" || warm.Tags["attr_cost_source"] != "measured" {
		t.Fatalf("warm plan inputs: %v", warm.Tags)
	}
	if got, want := warm.Annotations["index_comps"], int64(s.ANNProbeMeanComps); got != want {
		t.Fatalf("warm index_comps = %d, want the measured mean %d", got, want)
	}
}

// TestMixedSelectivityKeepsPostFilter: one column queried at 1, 10 and
// 50 % selectivity, as the filtered_search benchmark does. After a
// warm-up under the default policy the optimizer plans each bucket on
// the index's measured probe cost and the calibrated attribute-cost
// ratio with the query's own selectivity estimate — no per-column
// prior blends the buckets together — so the 10 % bucket takes the
// index (single_stage) instead of the exact scan the cold default
// sends it to, and the 50 % bucket keeps post_filter.
func TestMixedSelectivityKeepsPostFilter(t *testing.T) {
	const n, d = 8000, 32
	ds := dataset.Clustered(n, d, 32, 0.4, 3)
	c, err := NewCollection("mix", Schema{Dim: d, Attributes: map[string]filter.Kind{"cat": filter.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// i*7919 mod 100 decorrelates the attribute from row order and
		// cluster structure.
		if _, err := c.Insert(ds.Row(i), map[string]filter.Value{"cat": filter.IntV(int64(i * 7919 % 100))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("hnsw", map[string]int{"m": 8}); err != nil {
		t.Fatal(err)
	}
	thresholds := []int64{1, 10, 50}
	search := func(q []float32, thresh int64) string {
		t.Helper()
		res, err := c.Search(bg, SearchRequest{Vector: q, K: 10, Ef: 16, Filters: []Filter{{Column: "cat", Op: "<", Value: thresh}}})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Hits {
			if r.ID*7919%100 >= thresh {
				t.Fatalf("hit %d violates cat < %d", r.ID, thresh)
			}
		}
		return res.Plan
	}
	qs := ds.Queries(150, 0.05, 5)
	for i, q := range qs {
		search(q, thresholds[i%3])
	}
	if s := c.Stats(); s.ANNProbes < planner.MinProbeObservations || s.Calibration.AttrScans < planner.MinCostObservations {
		t.Fatalf("warm-up insufficient: probes=%d attr scans=%d", s.ANNProbes, s.Calibration.AttrScans)
	}
	want := []planner.Kind{planner.BruteForce, planner.SingleStage, planner.PostFilter}
	for i, q := range qs[:30] {
		if got := search(q, thresholds[i%3]); got != want[i%3].String() {
			s := c.Stats()
			t.Fatalf("%d %% bucket ran %v, want %v (probe comps %.0f, attr ns %.2f / comp ns %.2f)",
				thresholds[i%3], got, want[i%3], s.ANNProbeMeanComps, s.Calibration.NsPerAttrEval, s.Calibration.NsPerComp)
		}
	}
	// The picks must not hinge on the timing-calibrated ratio, which
	// differs by kernel, build and load (0.008 to 0.12 across kernels
	// and dimensions; 0.011 to 0.034 here, plain, -race and purego):
	// each plan's cost is linear in the ratio, so a bucket that picks
	// the same plan at both ends of [0.001, 0.5] picks it at every ratio
	// between. The measured probe cost and the query's own selectivity
	// sample are what set the plans.
	for b, thresh := range thresholds {
		res, err := c.Search(bg, SearchRequest{Vector: qs[0], K: 10, Ef: 16, Filters: []Filter{{Column: "cat", Op: "<", Value: thresh}}, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		var in obs.SpanReport
		for _, sp := range res.Trace.Children {
			if sp.Stage == "plan" {
				in = sp
			}
		}
		t.Logf("%d %% bucket: index_comps %d (%s), selectivity sample %.4f, attr cost ratio %.4f (%s)",
			thresh, in.Annotations["index_comps"], in.Tags["index_comps_source"], float64(in.Annotations["selectivity_ppm"])/1e6,
			float64(in.Annotations["attr_cost_ppm"])/1e6, in.Tags["attr_cost_source"])
		for _, ratio := range []float64{0.001, 0.5} {
			env := planner.Env{N: n, K: 10, HasIndex: true, IndexComps: float64(in.Annotations["index_comps"]),
				Selectivity: float64(in.Annotations["selectivity_ppm"]) / 1e6, AttrCostRatio: ratio}
			if got := planner.CostBased(env).Kind; got != want[b] {
				t.Fatalf("%d %% bucket plans %v at attribute cost ratio %g, want %v at every ratio", thresh, got, ratio, want[b])
			}
		}
	}
}
