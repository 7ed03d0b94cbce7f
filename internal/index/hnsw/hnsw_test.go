package hnsw

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"

	"vdbms/internal/bitset"
	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/index/graph"
	"vdbms/internal/vec"
)

func meanRecall(t *testing.T, h *graph.Index, ds *dataset.Dataset, ef, k, nq int, seed int64) float64 {
	t.Helper()
	qs := ds.Queries(nq, 0.05, seed)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, k)
	var s float64
	for i, q := range qs {
		got, err := h.Search(q, k, index.Params{Ef: ef})
		if err != nil {
			t.Fatal(err)
		}
		s += dataset.Recall(got, truth[i])
	}
	return s / float64(nq)
}

func TestHNSWHighRecall(t *testing.T) {
	ds := dataset.Clustered(2000, 16, 8, 0.4, 1)
	h, err := Build(ds.Data, ds.Count, ds.Dim, Config{M: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := meanRecall(t, h, ds, 100, 10, 20, 2); r < 0.9 {
		t.Fatalf("hnsw recall = %v", r)
	}
}

func TestEfSweepMonotone(t *testing.T) {
	ds := dataset.Clustered(1500, 16, 8, 0.4, 3)
	h, err := Build(ds.Data, ds.Count, ds.Dim, Config{M: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo := meanRecall(t, h, ds, 10, 10, 20, 4)
	hi := meanRecall(t, h, ds, 200, 10, 20, 4)
	if hi < lo {
		t.Fatalf("recall should grow with ef: %v -> %v", lo, hi)
	}
	if hi < 0.9 {
		t.Fatalf("ef=200 recall = %v", hi)
	}
}

func TestHierarchyExists(t *testing.T) {
	ds := dataset.Uniform(2000, 8, 5)
	h, err := Build(ds.Data, ds.Count, ds.Dim, Config{M: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Layers()) < 2 {
		t.Fatalf("expected multiple layers, got %d", len(h.Layers()))
	}
	// Degree cap: base layer average degree bounded by 2M (plus slack
	// for re-pruning under-full nodes).
	if d := graph.AvgDegree(h.Layers()[0]); d > float64(2*8)+1 {
		t.Fatalf("base degree %v exceeds 2M", d)
	}
}

func TestHeuristicVsNaiveSelection(t *testing.T) {
	// E6 ablation: heuristic selection should not lose to naive at the
	// same ef on clustered data.
	ds := dataset.Clustered(1500, 16, 10, 0.5, 7)
	heur, err := Build(ds.Data, ds.Count, ds.Dim, Config{M: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Build(ds.Data, ds.Count, ds.Dim, Config{M: 8, Seed: 3, NaiveSelection: true})
	if err != nil {
		t.Fatal(err)
	}
	rh := meanRecall(t, heur, ds, 50, 10, 20, 8)
	rn := meanRecall(t, naive, ds, 50, 10, 20, 8)
	if rh < rn-0.1 {
		t.Fatalf("heuristic recall %v far below naive %v", rh, rn)
	}
}

func TestPredicates(t *testing.T) {
	ds := dataset.Clustered(800, 8, 4, 0.4, 9)
	h, err := Build(ds.Data, ds.Count, ds.Dim, Config{M: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	allow := bitset.New(ds.Count)
	for i := 0; i < ds.Count; i += 5 {
		allow.Set(i)
	}
	got, err := h.Search(ds.Row(0), 10, index.Params{Ef: 100, Allow: allow})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("filtered search returned nothing")
	}
	for _, r := range got {
		if r.ID%5 != 0 {
			t.Fatalf("blocked id %d returned", r.ID)
		}
	}
	got, _ = h.Search(ds.Row(0), 10, index.Params{Ef: 100, Filter: func(id int64) bool { return id < 50 }})
	for _, r := range got {
		if r.ID >= 50 {
			t.Fatalf("filter violated: %d", r.ID)
		}
	}
}

func TestMetricVariants(t *testing.T) {
	ds := dataset.Clustered(600, 8, 4, 0.3, 11)
	for i := 0; i < ds.Count; i++ {
		vec.Normalize(ds.Row(i))
	}
	h, err := Build(ds.Data, ds.Count, ds.Dim, Config{M: 8, Seed: 1, Metric: vec.Cosine})
	if err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(10, 0.02, 12)
	truth := dataset.GroundTruth(vec.CosineDistance, ds, qs, 10)
	var s float64
	for i, q := range qs {
		got, _ := h.Search(q, 10, index.Params{Ef: 80})
		s += dataset.Recall(got, truth[i])
	}
	if mean := s / 10; mean < 0.8 {
		t.Fatalf("cosine hnsw recall = %v", mean)
	}
}

func TestValidationAndStats(t *testing.T) {
	if _, err := Build([]float32{1}, 2, 2, Config{}); err == nil {
		t.Fatal("want shape error")
	}
	ds := dataset.Uniform(60, 4, 13)
	h, _ := Build(ds.Data, 60, 4, Config{M: 4, Seed: 1})
	if _, err := h.Search(ds.Row(0), 0, index.Params{}); err != index.ErrBadK {
		t.Fatal("want ErrBadK")
	}
	if _, err := h.Search([]float32{1}, 1, index.Params{}); err == nil {
		t.Fatal("want dim error")
	}
	var st index.SearchStats
	h.Search(ds.Row(0), 3, index.Params{Stats: &st})
	if st.DistanceComps == 0 || h.Size() != 60 || h.Name() != "hnsw" {
		t.Fatal("metadata wrong")
	}
}

func TestRegistry(t *testing.T) {
	ds := dataset.Uniform(50, 4, 15)
	idx, err := index.Build("hnsw", ds.Data, 50, 4, vec.L2, map[string]int{"m": 4, "efc": 16, "naive": 1})
	if err != nil || idx.Name() != "hnsw" {
		t.Fatalf("%v", err)
	}
	if _, err := index.Build("hnsw", ds.Data, 50, 4, vec.L2, map[string]int{"zz": 1}); err == nil {
		t.Fatal("want unknown-option error")
	}
}

// TestHNSWQuantizedTraversal: sq8-backed neighbor expansion with exact
// re-rank must shrink the scoring payload >= 4x and keep high recall,
// and every returned distance is full precision (the re-rank ran).
func TestHNSWQuantizedTraversal(t *testing.T) {
	const n, k = 2000, 10
	ds := dataset.Clustered(n, 16, 8, 0.4, 31)
	h, err := Build(ds.Data, ds.Count, ds.Dim, Config{
		M: 12, Seed: 1, Quant: index.QuantSpec{Kind: index.QuantSQ8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !h.QuantizedScan() {
		t.Fatal("QuantizedScan() = false")
	}
	if ratio := float64(n*ds.Dim*4) / float64(h.ScoringBytes()); ratio < 4 {
		t.Fatalf("scoring payload compression %.1fx, want >= 4x", ratio)
	}
	qs := ds.Queries(20, 0.05, 32)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, k)
	var recall float64
	for i, q := range qs {
		got, err := h.Search(q, k, index.Params{Ef: 100})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			exact := vec.SquaredL2(q, ds.Row(int(r.ID)))
			if d := float64(r.Dist - exact); d > 1e-4 || d < -1e-4 {
				t.Fatalf("query %d id %d: dist %v not re-ranked to exact %v", i, r.ID, r.Dist, exact)
			}
		}
		recall += dataset.Recall(got, truth[i])
	}
	if recall/float64(len(qs)) < 0.9 {
		t.Fatalf("quantized hnsw recall = %.3f", recall/float64(len(qs)))
	}
}

// TestHNSWQuantRegistryOpts: the registry accepts the quant opt set
// for hnsw and records honest config errors for bad values.
func TestHNSWQuantRegistryOpts(t *testing.T) {
	ds := dataset.Clustered(300, 8, 4, 0.4, 33)
	idx, err := index.Build("hnsw", ds.Data, 300, 8, vec.L2,
		map[string]int{"m": 6, "quant": int(index.QuantSQ8), "rerank_k": 50})
	if err != nil {
		t.Fatal(err)
	}
	if !idx.(index.Quantized).QuantizedScan() {
		t.Fatal("quant opt ignored")
	}
	if _, err := index.Build("hnsw", ds.Data, 300, 8, vec.L2, map[string]int{"quant": 99}); err == nil {
		t.Fatal("quant=99 should be rejected")
	}
	if _, err := index.Build("hnsw", ds.Data, 300, 8, vec.Cosine, map[string]int{"quant": int(index.QuantPQ)}); err == nil {
		t.Fatal("pq under cosine should be rejected (ADC decomposes L2 only)")
	}
}

// slabHash fingerprints a frozen graph: every out-list, in node order.
func slabHash(nh graph.Neighborhoods) uint64 {
	h := fnv.New64a()
	for i := 0; i < nh.Len(); i++ {
		nbrs := nh.Neighbors(int32(i))
		binary.Write(h, binary.LittleEndian, int32(len(nbrs)))
		binary.Write(h, binary.LittleEndian, nbrs)
	}
	return h.Sum64()
}

// TestBuildIdentity: for a fixed seed the frozen layers are, edge for
// edge, the ones the map-based traversal this package was built on until
// PR 16 produced (the hashes were taken from that build). Construction
// runs on the same BeamSearch as serving, so a traversal that visits,
// prunes or orders differently shows here as a different graph; and at
// GOMAXPROCS 2 and 8 the build runs speculative batches on helpers,
// which must give the same graph as the serial loop at 1.
func TestBuildIdentity(t *testing.T) {
	ds := dataset.Clustered(3000, 32, 8, 1.0, 7)
	want := []uint64{0x465940e4aa6d1701, 0xb34639eaea95ea41, 0x26cb266661d7ddfd, 0x942a627105e6e1c9, 0x1dfeaf773f5ebca5}
	for _, procs := range []int{1, 2, 8} {
		old := runtime.GOMAXPROCS(procs)
		h, err := Build(ds.Data, ds.Count, ds.Dim, Config{M: 16, Seed: 3})
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for _, nh := range h.Layers() {
			got = append(got, slabHash(nh))
		}
		if !slices.Equal(got, want) {
			t.Errorf("GOMAXPROCS %d: layers hash to %#x, want %#x", procs, got, want)
		}
	}
}

var raceEnabled bool // set by race_test.go

// TestSearchAllocations: an unconstrained probe allocates the slice it
// returns and nothing else; everything else lives in the pooled
// traversal scratch. A predicate may cost one more.
func TestSearchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	ds := dataset.Clustered(3000, 32, 8, 1.0, 7)
	h, err := Build(ds.Data, ds.Count, ds.Dim, Config{M: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(64, 0.5, 8)
	allow := bitset.New(ds.Count)
	for i := 0; i < ds.Count; i += 10 {
		allow.Set(i)
	}
	for _, tc := range []struct {
		name string
		p    index.Params
		max  float64
	}{
		{"unconstrained", index.Params{Ef: 64}, 2},
		{"allow", index.Params{Ef: 64, Allow: allow}, 3},
	} {
		i := 0
		got := testing.AllocsPerRun(500, func() {
			if _, err := h.Search(qs[i%len(qs)], 10, tc.p); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if got > tc.max {
			t.Errorf("%s: %v allocations per search, want <= %v", tc.name, got, tc.max)
		}
	}
}
