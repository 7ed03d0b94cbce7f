// Metric-correctness sweep: every registered index family is built
// under every practical metric and either (a) returns rankings
// consistent with a brute-force scan under that same metric, when its
// registry declaration lists the metric, or (b) refuses to build with
// ErrMetric. Option (c) — building happily and ranking under
// L2 regardless — is the bug this file exists to keep dead: the ivf
// segment builder shipped that way, and any family whose registry
// drops the metric parameter would regress the same way.
package index_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/topk"
	"vdbms/internal/tuner"
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

// sweepCase is what the sweep needs beyond a family's declaration.
type sweepCase struct {
	opts map[string]int
	// recallFloor is the minimum top-k recall against brute force
	// under exhaustive params; 1.0 unless the family is inherently
	// probabilistic even at full budget.
	recallFloor float64
}

// exhaustive returns search params generous enough that a family's
// approximation error vanishes (or nearly so) on a small dataset: the
// declared knob at n, and a re-rank over the whole collection. The
// other knob sits at its floor, so a family declared on a knob its
// Search does not read probes almost nothing and misses the recall
// floor.
func exhaustive(fam index.Family, n int) index.Params {
	if fam.Knob == tuner.KnobNProbe {
		return index.Params{NProbe: n, Ef: 1, RerankK: n}
	}
	return index.Params{Ef: n, NProbe: 1, RerankK: n}
}

func sweepCases() map[string]sweepCase {
	exact := sweepCase{recallFloor: 1.0}
	return map[string]sweepCase{
		"flat": exact,
		// Graph families: ef = n visits the whole connected component,
		// and construction connects orphans, so recall is exact. KNNG
		// has no navigating entry point, so it keeps a small slack.
		"hnsw":   {map[string]int{"m": 8}, 1.0},
		"nsw":    {map[string]int{"m": 8}, 1.0},
		"nsg":    {map[string]int{"r": 8, "l": 16}, 1.0},
		"vamana": {map[string]int{"r": 8, "l": 16}, 1.0},
		"fanng":  {map[string]int{"r": 8, "trials": 8}, 1.0},
		"knng":   {map[string]int{"k": 12, "iters": 10}, 0.9},
		// IVF-Flat scans whole lists under the configured metric —
		// nprobe >= nlist is a partitioned exact scan. The compressed
		// variants recover exactness through the full-precision
		// re-rank once rerank_k covers the collection. 16 lists are
		// finer than the data's 4 clusters, so one list is not enough.
		"ivfflat": {map[string]int{"nlist": 16}, 1.0},
		"ivfsq":   {map[string]int{"nlist": 16}, 1.0},
		"ivfadc":  {map[string]int{"nlist": 16, "m": 2, "ks": 16}, 1.0},
		// Tree families: with a leaf budget of n the best-first descent
		// is exact.
		"kdtree":   exact,
		"kdforest": {map[string]int{"trees": 2}, 1.0},
		"pkdtree":  exact,
		"pcatree":  exact,
		"rptree":   {map[string]int{"trees": 2}, 1.0},
		"annoy":    {map[string]int{"trees": 2}, 1.0},
		// Spectral hashing with 2 bits: radius-2 multi-probe reaches
		// every bucket, so the candidate set is the whole collection.
		"spectral": {map[string]int{"bits": 2, "pcadims": 4}, 1.0},
		// LSH buckets lose candidates even at full width; the sweep
		// pins metric-correct distances and a loose floor.
		"lsh": {map[string]int{"l": 8, "k": 2}, 0.3},
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
		fam, _ := index.Lookup(name)
		tc, ok := cases[name]
		if !ok {
			t.Errorf("family %q is registered but missing from the metric sweep — add it", name)
			continue
		}
		for _, m := range []vec.Metric{vec.L2, vec.InnerProduct, vec.Cosine} {
			t.Run(fmt.Sprintf("%s/%s", name, m), func(t *testing.T) {
				idx, err := index.Build(name, ds.Data, n, dim, m, tc.opts)
				if !slices.Contains(fam.Metrics, m) {
					if !errors.Is(err, index.ErrMetric) {
						t.Fatalf("%s built under %s (err %v); must refuse with ErrMetric rather than rank under the wrong metric", name, m, err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				fn := vec.Distance(m)
				for qi, q := range qs {
					p := exhaustive(fam, n)
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
