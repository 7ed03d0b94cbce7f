package tree

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"testing"

	"vdbms/internal/bitset"
	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/vec"

	_ "vdbms/internal/index/lsh"
	_ "vdbms/internal/index/spectral"
)

func recallOf(t *testing.T, idx index.Index, ds *dataset.Dataset, ef, k, nq int) float64 {
	t.Helper()
	qs := ds.Queries(nq, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, k)
	var s float64
	for i, q := range qs {
		got, err := idx.Search(q, k, index.Params{Ef: ef})
		if err != nil {
			t.Fatal(err)
		}
		s += dataset.Recall(got, truth[i])
	}
	return s / float64(nq)
}

func TestMedianTreeLowDimExact(t *testing.T) {
	// In low dimension a deterministic k-d tree with a generous budget
	// reaches high recall.
	ds := dataset.Clustered(1000, 4, 5, 0.4, 1)
	tr, err := Build(ds.Data, ds.Count, ds.Dim, Config{Rule: Widest, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := recallOf(t, tr, ds, 400, 10, 15); r < 0.9 {
		t.Fatalf("low-dim kdtree recall = %v", r)
	}
	if tr.Name() != "kdtree" {
		t.Fatal("name wrong")
	}
}

func TestBudgetImprovesRecall(t *testing.T) {
	ds := dataset.Clustered(2000, 16, 8, 0.4, 3)
	tr, err := Build(ds.Data, ds.Count, ds.Dim, Config{Rule: RandomTop5, Trees: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lo := recallOf(t, tr, ds, 50, 10, 15)
	hi := recallOf(t, tr, ds, 1000, 10, 15)
	if hi < lo {
		t.Fatalf("recall must grow with budget: %v -> %v", lo, hi)
	}
	if hi < 0.7 {
		t.Fatalf("forest recall at big budget = %v", hi)
	}
}

func TestForestBeatsSingleTreeHighDim(t *testing.T) {
	ds := dataset.LowRank(2000, 32, 4, 0.05, 7)
	single, err := Build(ds.Data, ds.Count, ds.Dim, Config{Rule: Widest, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := Build(ds.Data, ds.Count, ds.Dim, Config{Rule: RandomTop5, Trees: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rs := recallOf(t, single, ds, 300, 10, 20)
	rf := recallOf(t, forest, ds, 300, 10, 20)
	if rf < rs-0.05 {
		t.Fatalf("randomized forest (%v) should not trail single tree (%v) on low-rank data", rf, rs)
	}
}

func TestPCAModes(t *testing.T) {
	ds := dataset.LowRank(1500, 16, 3, 0.05, 11)
	for _, cfg := range []Config{
		{Rule: NodePCA, Seed: 1},
		{Rule: PKD, Seed: 1, PCAAxes: 4},
	} {
		tr, err := Build(ds.Data, ds.Count, ds.Dim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r := recallOf(t, tr, ds, 500, 10, 10); r < 0.5 {
			t.Fatalf("%s recall = %v", tr.Name(), r)
		}
	}
}

func TestPredicatesRespected(t *testing.T) {
	ds := dataset.Uniform(300, 8, 13)
	tr, err := Build(ds.Data, ds.Count, ds.Dim, Config{Rule: Widest, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	allow := bitset.New(300)
	for i := 0; i < 300; i += 3 {
		allow.Set(i)
	}
	got, err := tr.Search(ds.Row(0), 10, index.Params{Ef: 300, Allow: allow})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.ID%3 != 0 {
			t.Fatalf("blocked id %d returned", r.ID)
		}
	}
	got, _ = tr.Search(ds.Row(0), 10, index.Params{Ef: 300, Filter: func(id int64) bool { return id > 150 }})
	for _, r := range got {
		if r.ID <= 150 {
			t.Fatalf("filtered id %d returned", r.ID)
		}
	}
}

func TestValidationAndStats(t *testing.T) {
	if _, err := Build([]float32{1}, 2, 2, Config{}); err == nil {
		t.Fatal("want shape error")
	}
	ds := dataset.Uniform(100, 4, 15)
	if _, err := Build(ds.Data, 100, 4, Config{Rule: Annoy + 1}); err == nil {
		t.Fatal("want unknown-rule error")
	}
	tr, _ := Build(ds.Data, 100, 4, Config{Seed: 1})
	if _, err := tr.Search(ds.Row(0), 0, index.Params{}); err != index.ErrBadK {
		t.Fatal("want ErrBadK")
	}
	if _, err := tr.Search([]float32{1}, 1, index.Params{}); err == nil {
		t.Fatal("want dim error")
	}
	var st index.SearchStats
	tr.Search(ds.Row(0), 5, index.Params{Stats: &st})
	if st.DistanceComps == 0 {
		t.Fatal("comps not counted")
	}
	if tr.Size() != 100 {
		t.Fatal("size wrong")
	}
}

func TestDuplicatePointsDegenerate(t *testing.T) {
	// All-identical points force degenerate splits; the tree must
	// still build (single leaf) and search.
	data := make([]float32, 100*4)
	tr, err := Build(data, 100, 4, Config{LeafSize: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Search(make([]float32, 4), 5, index.Params{})
	if err != nil || len(got) != 5 {
		t.Fatalf("degenerate search: %v %v", got, err)
	}
}

func TestRegistryNames(t *testing.T) {
	ds := dataset.Uniform(60, 4, 17)
	for name, opts := range map[string]map[string]int{
		"kdtree":   {"leaf": 8},
		"pcatree":  {"leaf": 8},
		"pkdtree":  {"leaf": 8},
		"kdforest": {"trees": 2, "leaf": 8, "seed": 3},
	} {
		idx, err := index.Build(name, ds.Data, 60, 4, vec.L2, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if idx.Name() != name {
			t.Fatalf("name = %s want %s", idx.Name(), name)
		}
	}
	// The deterministic rules build one tree whatever the seed, so they
	// take neither a forest size nor a seed.
	for _, name := range []string{"kdtree", "pcatree", "pkdtree"} {
		for _, key := range []string{"trees", "seed"} {
			if _, err := index.Build(name, ds.Data, 60, 4, vec.L2, map[string]int{key: 2}); !errors.Is(err, index.ErrOption) {
				t.Fatalf("%s %s: %v, want ErrOption", name, key, err)
			}
		}
	}
	if _, err := index.Build("kdtree", ds.Data, 60, 4, vec.L2, map[string]int{"zz": 1}); err == nil {
		t.Fatal("want unknown-option error")
	}
}

func TestRPForestRecall(t *testing.T) {
	ds := dataset.Clustered(2000, 16, 8, 0.4, 1)
	f, err := Build(ds.Data, ds.Count, ds.Dim, Config{Rule: RP, Trees: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := recallOf(t, f, ds, 600, 10, 15); r < 0.7 {
		t.Fatalf("rptree recall = %v", r)
	}
	if f.Name() != "rptree" {
		t.Fatal("name wrong")
	}
}

func TestAnnoyRecallAndName(t *testing.T) {
	ds := dataset.Clustered(2000, 16, 8, 0.4, 3)
	f, err := Build(ds.Data, ds.Count, ds.Dim, Config{Rule: Annoy, Trees: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r := recallOf(t, f, ds, 600, 10, 15); r < 0.7 {
		t.Fatalf("annoy recall = %v", r)
	}
	if f.Name() != "annoy" {
		t.Fatal("name wrong")
	}
}

func TestMoreTreesImproveRecall(t *testing.T) {
	ds := dataset.LowRank(1500, 32, 4, 0.05, 5)
	small, err := Build(ds.Data, ds.Count, ds.Dim, Config{Rule: Annoy, Trees: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(ds.Data, ds.Count, ds.Dim, Config{Rule: Annoy, Trees: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rs := recallOf(t, small, ds, 300, 10, 20)
	rb := recallOf(t, big, ds, 300, 10, 20)
	if rb < rs-0.02 {
		t.Fatalf("16 trees (%v) should not trail 1 tree (%v)", rb, rs)
	}
}

func TestDegenerateData(t *testing.T) {
	data := make([]float32, 64*4) // identical points
	f, err := Build(data, 64, 4, Config{Rule: RP, Trees: 2, LeafSize: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Search(make([]float32, 4), 3, index.Params{})
	if err != nil || len(got) != 3 {
		t.Fatalf("degenerate: %v %v", got, err)
	}
}

func TestPredicatesAndValidation(t *testing.T) {
	ds := dataset.Uniform(200, 8, 9)
	f, err := Build(ds.Data, 200, 8, Config{Rule: RP, Trees: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Search(ds.Row(0), 0, index.Params{}); err != index.ErrBadK {
		t.Fatal("want ErrBadK")
	}
	if _, err := f.Search([]float32{1}, 1, index.Params{}); err == nil {
		t.Fatal("want dim error")
	}
	if _, err := Build([]float32{1}, 2, 2, Config{Rule: RP}); err == nil {
		t.Fatal("want shape error")
	}
	allow := bitset.New(200)
	allow.Set(1)
	got, _ := f.Search(ds.Row(1), 5, index.Params{Ef: 200, Allow: allow})
	for _, r := range got {
		if r.ID != 1 {
			t.Fatalf("blocked id %d", r.ID)
		}
	}
	var st index.SearchStats
	f.Search(ds.Row(0), 5, index.Params{Stats: &st})
	if st.DistanceComps == 0 || f.Size() != 200 {
		t.Fatal("stats wrong")
	}
}

func TestRegistry(t *testing.T) {
	ds := dataset.Uniform(60, 4, 11)
	for _, name := range []string{"rptree", "annoy"} {
		idx, err := index.Build(name, ds.Data, 60, 4, vec.L2, map[string]int{"trees": 2})
		if err != nil || idx.Name() != name {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := index.Build("annoy", ds.Data, 60, 4, vec.L2, map[string]int{"zz": 1}); err == nil {
		t.Fatal("want unknown-option error")
	}
}

// hitsHash folds the ids and distance bits of every hit of every query,
// searched once plain and once under an allowlist, into one value.
func hitsHash(t *testing.T, idx index.Index, ds *dataset.Dataset, qs [][]float32) uint64 {
	t.Helper()
	allow := bitset.New(ds.Count)
	for i := 0; i < ds.Count; i += 3 {
		allow.Set(i)
	}
	h := fnv.New64a()
	var buf [12]byte
	for _, p := range []index.Params{{}, {Ef: 256, Allow: allow}} {
		for _, q := range qs {
			got, err := idx.Search(q, 10, p)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint32(buf[:4], uint32(len(got)))
			h.Write(buf[:4])
			for _, r := range got {
				binary.LittleEndian.PutUint64(buf[:8], uint64(r.ID))
				binary.LittleEndian.PutUint32(buf[8:], math.Float32bits(r.Dist))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// TestHitIdentity pins the hits of the split rules to those of the
// separate kdtree and rptree packages this one replaced, and of the two
// hashing families that share the registry-wide work counter: same
// trees, same leaf order, same distance bits. kdforest is the exception
// by design — those packages' forest scored a point once per tree that
// held it and could return it several times — so it is held to
// distinct ids at exact squared-L2 distances instead.
func TestHitIdentity(t *testing.T) {
	ds := dataset.Clustered(1500, 16, 8, 0.4, 21)
	qs := ds.Queries(40, 0.05, 22)
	for name, want := range map[string]uint64{
		"kdtree":   0x6aef09766c37f481,
		"pcatree":  0x942221ec949471ea,
		"pkdtree":  0x40cb352561b058d1,
		"rptree":   0x6397efa75346e37d,
		"annoy":    0x87ab3ed2f0e80967,
		"spectral": 0x6a24a82cfdd6bfee,
		"lsh":      0xb4be3d57cd7fa247,
	} {
		idx, err := index.Build(name, ds.Data, ds.Count, ds.Dim, vec.L2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := hitsHash(t, idx, ds, qs); got != want {
			t.Errorf("%s: hits hash %#016x, want %#016x", name, got, want)
		}
	}
	forest, err := index.Build("kdforest", ds.Data, ds.Count, ds.Dim, vec.L2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range qs {
		got, err := forest.Search(q, 10, index.Params{})
		if err != nil {
			t.Fatal(err)
		}
		ids := map[int64]bool{}
		for _, r := range got {
			if ids[r.ID] {
				t.Fatalf("query %d: id %d returned twice", qi, r.ID)
			}
			ids[r.ID] = true
			if want := vec.SquaredL2(q, ds.Row(int(r.ID))); r.Dist != want {
				t.Fatalf("query %d id %d: dist %v, SquaredL2 %v", qi, r.ID, r.Dist, want)
			}
		}
	}
}
