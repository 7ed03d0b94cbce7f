// Instrumentation-overhead guard on a flat 128-d search (10k rows,
// k=10). The baseline calls the index directly: no record, nothing
// published. The instrumented variant goes through executor.Execute,
// which fills the query's record on the stack and publishes it once
// (stage histograms, per-index counters, the statistics tracker). The
// traced variant also renders the record as a span tree, as the server
// does when a request carries X-Vdbms-Trace or the slow-query log is
// armed. Publishing is a handful of atomic adds per query (not per
// row), and rendering a few small maps: both are noise against a
// 1.28M-float scan.
package obs_test

import (
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/executor"
	"vdbms/internal/index"
	"vdbms/internal/planner"
)

func benchEnv(b *testing.B) (*executor.Env, []float32) {
	b.Helper()
	syn := dataset.Clustered(10000, 128, 16, 0.4, 1)
	env, err := executor.NewEnv(syn.Data, syn.Count, syn.Dim, nil, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	return env, syn.Data[:syn.Dim]
}

// BenchmarkSearchUninstrumented is the no-observability baseline: the
// flat index is probed directly.
func BenchmarkSearchUninstrumented(b *testing.B) {
	env, q := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Flat.Search(q, 10, index.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchInstrumented is the production path untraced: the
// Env's own record, published.
func BenchmarkSearchInstrumented(b *testing.B) {
	env, q := benchEnv(b)
	plan := planner.Plan{Kind: planner.BruteForce}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Execute(plan, q, 10, nil, executor.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchTraced passes the caller's record and renders it.
func BenchmarkSearchTraced(b *testing.B) {
	env, q := benchEnv(b)
	plan := planner.Plan{Kind: planner.BruteForce}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rec executor.Record
		if _, err := env.Execute(plan, q, 10, nil, executor.Options{Record: &rec}); err != nil {
			b.Fatal(err)
		}
		if rep := rec.Trace("search", 0); len(rep.Children) != 1 || rep.Children[0].Annotations["distance_comps"] != 10000 {
			b.Fatalf("trace %+v, want one index_probe over 10000 rows", rep)
		}
	}
}
