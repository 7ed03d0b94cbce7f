package lsh

import (
	"testing"

	"vdbms/internal/bitset"
	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/vec"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]float32{1}, 2, 2, Config{}); err == nil {
		t.Fatal("want shape error")
	}
}

func TestPStableRecallBeatsRandom(t *testing.T) {
	ds := dataset.Clustered(2000, 16, 8, 0.3, 1)
	l, err := Build(ds.Data, ds.Count, ds.Dim, Config{L: 12, K: 6, Family: PStable, W: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(20, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	var rsum float64
	var st index.SearchStats
	for i, q := range qs {
		got, err := l.Search(q, 10, index.Params{Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		rsum += dataset.Recall(got, truth[i])
	}
	if mean := rsum / 20; mean < 0.5 {
		t.Fatalf("p-stable recall = %v, want >= 0.5", mean)
	}
	if st.DistanceComps == 0 {
		t.Fatal("stats not counted")
	}
}

func TestMoreTablesImproveRecall(t *testing.T) {
	ds := dataset.Clustered(2000, 16, 8, 0.3, 5)
	l, err := Build(ds.Data, ds.Count, ds.Dim, Config{L: 16, K: 8, Family: PStable, W: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(25, 0.05, 6)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	recallAt := func(tables int) float64 {
		var s float64
		for i, q := range qs {
			got, _ := l.Search(q, 10, index.Params{NProbe: tables})
			s += dataset.Recall(got, truth[i])
		}
		return s / float64(len(qs))
	}
	lo, hi := recallAt(1), recallAt(16)
	if hi < lo {
		t.Fatalf("more tables should not hurt recall: L=1 %v, L=16 %v", lo, hi)
	}
	// Candidate cost must grow with tables.
	q := qs[0]
	if l.CandidateCount(q, 16) < l.CandidateCount(q, 1) {
		t.Fatal("candidates must grow with probed tables")
	}
}

func TestLargerKShrinksBuckets(t *testing.T) {
	ds := dataset.Clustered(1500, 16, 6, 0.4, 9)
	loose, err := Build(ds.Data, ds.Count, ds.Dim, Config{L: 4, K: 2, Family: PStable, W: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sharp, err := Build(ds.Data, ds.Count, ds.Dim, Config{L: 4, K: 16, Family: PStable, W: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(10, 0.05, 12)
	var looseCands, sharpCands int
	for _, q := range qs {
		looseCands += loose.CandidateCount(q, 0)
		sharpCands += sharp.CandidateCount(q, 0)
	}
	if sharpCands >= looseCands {
		t.Fatalf("K=16 should produce fewer candidates than K=2: %d vs %d", sharpCands, looseCands)
	}
}

func TestHyperplaneAngularSearch(t *testing.T) {
	// Unit-norm data; hyperplane LSH targets angular similarity.
	ds := dataset.Clustered(1000, 8, 5, 0.2, 13)
	for i := 0; i < ds.Count; i++ {
		vec.Normalize(ds.Row(i))
	}
	l, err := Build(ds.Data, ds.Count, ds.Dim, Config{L: 10, K: 6, Family: Hyperplane, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(15, 0.02, 14)
	truth := dataset.GroundTruth(vec.CosineDistance, ds, qs, 10)
	var rsum float64
	for i, q := range qs {
		got, _ := l.Search(q, 10, index.Params{})
		rsum += dataset.Recall(got, truth[i])
	}
	if mean := rsum / 15; mean < 0.5 {
		t.Fatalf("hyperplane recall = %v", mean)
	}
}

func TestSearchValidationAndPredicates(t *testing.T) {
	ds := dataset.Uniform(100, 4, 17)
	l, err := Build(ds.Data, 100, 4, Config{L: 4, K: 2, Family: PStable, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Search(ds.Row(0), 0, index.Params{}); err != index.ErrBadK {
		t.Fatal("want ErrBadK")
	}
	if _, err := l.Search([]float32{1}, 1, index.Params{}); err == nil {
		t.Fatal("want dim error")
	}
	allow := bitset.New(100)
	allow.Set(3)
	got, err := l.Search(ds.Row(3), 5, index.Params{Allow: allow})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.ID != 3 {
			t.Fatalf("blocked id %d returned", r.ID)
		}
	}
	var st index.SearchStats
	got, _ = l.Search(ds.Row(0), 5, index.Params{Filter: func(id int64) bool { return false }, Stats: &st})
	if len(got) != 0 {
		t.Fatal("filter rejecting everything must yield no results")
	}
	if st.DistanceComps != 0 {
		t.Fatalf("%d blocked rows scored", st.DistanceComps)
	}
}

func TestRegistryBuild(t *testing.T) {
	ds := dataset.Uniform(50, 4, 19)
	idx, err := index.Build("lsh", ds.Data, 50, 4, vec.L2, map[string]int{"l": 4, "k": 2, "pstable": 1, "w": 4})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Name() != "lsh" || idx.Size() != 50 {
		t.Fatal("registry metadata wrong")
	}
	if _, err := index.Build("lsh", ds.Data, 50, 4, vec.L2, map[string]int{"bogus": 1}); err == nil {
		t.Fatal("want unknown-option error")
	}
}
