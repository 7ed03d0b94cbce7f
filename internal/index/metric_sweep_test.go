// Metric-correctness sweep: every registered index family is built
// under every practical metric and either (a) returns rankings
// consistent with a brute-force scan under that same metric, or (b)
// refuses to build. Option (c) — building happily and ranking under
// L2 regardless — is the bug this file exists to keep dead: the ivf
// segment builder shipped that way, and any family whose registry
// drops the metric parameter would regress the same way.
package index_test

import (
	"fmt"
	"math"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/topk"
	"vdbms/internal/vec"

	_ "vdbms/internal/index/hnsw"
	_ "vdbms/internal/index/ivf"
	_ "vdbms/internal/index/knng"
	_ "vdbms/internal/index/lsh"
	_ "vdbms/internal/index/nsg"
	_ "vdbms/internal/index/nsw"
	_ "vdbms/internal/index/spectral"
	_ "vdbms/internal/index/tree"
)

// sweepCase describes one family's contract with the sweep.
type sweepCase struct {
	opts map[string]int
	// supports lists the metrics the family must honor; every other
	// swept metric must fail at build time.
	supports []vec.Metric
	// params returns search knobs generous enough that the family's
	// approximation error vanishes (or nearly so) on a small dataset.
	params func(n, k int) index.Params
	// recallFloor is the minimum top-k recall against brute force
	// under exhaustive params; 1.0 unless the family is inherently
	// probabilistic even at full budget.
	recallFloor float64
}

func exhaustiveGraph(n, k int) index.Params  { return index.Params{Ef: n} }
func exhaustiveBucket(n, k int) index.Params { return index.Params{NProbe: 64, RerankK: n} }

func sweepCases() map[string]sweepCase {
	anyMetric := []vec.Metric{vec.L2, vec.InnerProduct, vec.Cosine}
	l2Only := []vec.Metric{vec.L2}
	graph := func(opts map[string]int, floor float64) sweepCase {
		return sweepCase{opts: opts, supports: anyMetric, params: exhaustiveGraph, recallFloor: floor}
	}
	tree := func(opts map[string]int) sweepCase {
		return sweepCase{opts: opts, supports: l2Only, params: exhaustiveGraph, recallFloor: 1.0}
	}
	return map[string]sweepCase{
		"flat": {opts: nil, supports: anyMetric, params: exhaustiveGraph, recallFloor: 1.0},
		// Graph families: ef = n visits the whole connected component,
		// and construction connects orphans, so recall is exact. KNNG
		// has no navigating entry point, so it keeps a small slack.
		"hnsw":   graph(map[string]int{"m": 8}, 1.0),
		"nsw":    graph(map[string]int{"m": 8}, 1.0),
		"nsg":    graph(map[string]int{"r": 8, "l": 16}, 1.0),
		"vamana": graph(map[string]int{"r": 8, "l": 16}, 1.0),
		"fanng":  graph(map[string]int{"r": 8, "trials": 8}, 1.0),
		"knng":   graph(map[string]int{"k": 12, "iters": 10}, 0.9),
		// IVF-Flat scans whole lists under the configured metric —
		// nprobe >= nlist is a partitioned exact scan. The compressed
		// variants are L2-only and recover exactness through the
		// full-precision re-rank once rerank_k covers the collection.
		"ivfflat": {opts: map[string]int{"nlist": 4}, supports: anyMetric, params: exhaustiveBucket, recallFloor: 1.0},
		"ivfsq":   {opts: map[string]int{"nlist": 4}, supports: l2Only, params: exhaustiveBucket, recallFloor: 1.0},
		"ivfadc":  {opts: map[string]int{"nlist": 4, "m": 2, "ks": 16}, supports: l2Only, params: exhaustiveBucket, recallFloor: 1.0},
		// Tree families bound subtrees by squared L2; with a leaf
		// budget of n the best-first descent is exact.
		"kdtree":   tree(nil),
		"kdforest": tree(map[string]int{"trees": 2}),
		"pkdtree":  tree(nil),
		"pcatree":  tree(nil),
		"rptree":   tree(map[string]int{"trees": 2}),
		"annoy":    tree(map[string]int{"trees": 2}),
		// Spectral hashing with 2 bits: radius-2 multi-probe reaches
		// every bucket, so the candidate set is the whole collection.
		"spectral": {opts: map[string]int{"bits": 2, "pcadims": 4}, supports: l2Only, params: exhaustiveGraph, recallFloor: 1.0},
		// LSH buckets lose candidates even at full width; the sweep
		// pins metric-correct distances and a loose floor.
		"lsh": {opts: map[string]int{"l": 8, "k": 2}, supports: []vec.Metric{vec.L2, vec.Cosine},
			params: exhaustiveGraph, recallFloor: 0.3},
	}
}

// bruteTopK is the reference ranking: score every row with the
// canonical metric function and keep k by (dist, id).
func bruteTopK(m vec.Metric, ds *dataset.Dataset, q []float32, k int) []topk.Result {
	fn := vec.Distance(m)
	c := topk.NewCollector(k)
	for i := 0; i < ds.Count; i++ {
		c.Push(int64(i), fn(q, ds.Row(i)))
	}
	return c.Results()
}

// recallOf counts each true neighbour once, however often got repeats
// it.
func recallOf(got, truth []topk.Result) float64 {
	want := map[int64]bool{}
	for _, r := range truth {
		want[r.ID] = true
	}
	hit := 0
	for _, r := range got {
		if want[r.ID] {
			hit++
			want[r.ID] = false
		}
	}
	return float64(hit) / float64(len(truth))
}

// TestMetricSweepAllFamilies is the family x metric matrix. Every
// family must also return distinct ids — kdforest once returned a
// point for every tree that held it — and report its work in the
// query's SearchStats.
func TestMetricSweepAllFamilies(t *testing.T) {
	const (
		n, dim = 200, 8
		k, nq  = 10, 5
	)
	ds := dataset.Clustered(n, dim, 4, 0.4, 7)
	qs := ds.Queries(nq, 0.05, 11)
	cases := sweepCases()
	for _, name := range index.Names() {
		if name == "testhold" {
			continue // registered by another package's test binary
		}
		tc, ok := cases[name]
		if !ok {
			t.Errorf("family %q is registered but missing from the metric sweep — add it", name)
			continue
		}
		for _, m := range []vec.Metric{vec.L2, vec.InnerProduct, vec.Cosine} {
			t.Run(fmt.Sprintf("%s/%s", name, m), func(t *testing.T) {
				supported := false
				for _, s := range tc.supports {
					if s == m {
						supported = true
					}
				}
				idx, err := index.Build(name, ds.Data, n, dim, m, tc.opts)
				if !supported {
					if err == nil {
						t.Fatalf("%s built under %s; must refuse rather than rank under the wrong metric", name, m)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				fn := vec.Distance(m)
				for qi, q := range qs {
					p := tc.params(n, k)
					var st index.SearchStats
					p.Stats = &st
					got, err := idx.Search(q, k, p)
					if err != nil {
						t.Fatal(err)
					}
					if st.DistanceComps <= 0 {
						t.Fatalf("query %d: no distance computations reported: %+v", qi, st)
					}
					seen := map[int64]bool{}
					for _, r := range got {
						if seen[r.ID] {
							t.Fatalf("query %d: id %d returned twice", qi, r.ID)
						}
						seen[r.ID] = true
					}
					truth := bruteTopK(m, ds, q, k)
					// Every reported distance must be the configured
					// metric's value for that row — an index that ranked
					// under L2 fails here on ip/cosine immediately.
					for _, r := range got {
						want := fn(q, ds.Row(int(r.ID)))
						if math.Abs(float64(r.Dist-want)) > 1e-4 {
							t.Fatalf("query %d id %d: dist %v, %s(q,row) = %v", qi, r.ID, r.Dist, m, want)
						}
					}
					if rec := recallOf(got, truth); rec < tc.recallFloor {
						t.Fatalf("query %d: recall %.2f < %.2f under %s", qi, rec, tc.recallFloor, m)
					}
				}
			})
		}
	}
}
