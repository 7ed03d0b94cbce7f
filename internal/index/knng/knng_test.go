package knng

import (
	"fmt"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

func TestExactGraphIsTrueKNN(t *testing.T) {
	ds := dataset.Clustered(200, 8, 4, 0.5, 1)
	g, err := Construct(ds.Data, ds.Count, ds.Dim, Config{K: 5, Init: Exact})
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check node 0 against brute force.
	truth := dataset.GroundTruth(vec.SquaredL2, ds, [][]float32{ds.Row(0)}, 6)[0]
	want := map[int64]bool{}
	for _, r := range truth {
		if r.ID != 0 {
			want[r.ID] = true
		}
	}
	for _, nb := range g.Adjacency()[0] {
		if !want[int64(nb)] {
			t.Fatalf("exact KNNG edge 0->%d not in true 5-NN %v", nb, truth)
		}
	}
	if g.Accuracy(g) != 1 {
		t.Fatal("self accuracy must be 1")
	}
}

func TestNNDescentConverges(t *testing.T) {
	ds := dataset.Clustered(600, 16, 6, 0.4, 3)
	exact, err := Construct(ds.Data, ds.Count, ds.Dim, Config{K: 8, Init: Exact})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Construct(ds.Data, ds.Count, ds.Dim, Config{K: 8, Init: RandomInit, MaxIter: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if acc := approx.Accuracy(exact); acc < 0.85 {
		t.Fatalf("NN-Descent accuracy = %v, want >= 0.85", acc)
	}
	if approx.Iters == 0 {
		t.Fatal("descent did not run")
	}
}

func TestTreeInitAccuracy(t *testing.T) {
	ds := dataset.Clustered(600, 16, 6, 0.4, 7)
	exact, err := Construct(ds.Data, ds.Count, ds.Dim, Config{K: 8, Init: Exact})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Construct(ds.Data, ds.Count, ds.Dim, Config{K: 8, Init: TreeInit, MaxIter: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(exact); acc < 0.85 {
		t.Fatalf("tree-init accuracy = %v", acc)
	}
}

func TestSearchRecall(t *testing.T) {
	ds := dataset.Clustered(1500, 16, 8, 0.4, 9)
	// A KNNG over clustered data splits into per-cluster components;
	// scatter enough entry points that every component is probed.
	g, err := Build(ds.Data, ds.Count, ds.Dim, Config{K: 10, MaxIter: 10, Seed: 1, NumEntry: 64})
	if err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(15, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	var s float64
	for i, q := range qs {
		// A raw KNNG is weakly navigable (the motivation for MSNs),
		// so give it a generous beam.
		got, err := g.Search(q, 10, index.Params{Ef: 300})
		if err != nil {
			t.Fatal(err)
		}
		s += dataset.Recall(got, truth[i])
	}
	if mean := s / 15; mean < 0.7 {
		t.Fatalf("knng search recall = %v", mean)
	}
}

func TestValidationAndKClamp(t *testing.T) {
	if _, err := Build([]float32{1}, 2, 2, Config{}); err == nil {
		t.Fatal("want shape error")
	}
	ds := dataset.Uniform(5, 2, 1)
	g, err := Build(ds.Data, 5, 2, Config{K: 10, Init: Exact})
	if err != nil {
		t.Fatal(err)
	}
	if nbrs := g.Layers()[0].Neighbors(0); len(nbrs) != 4 {
		t.Fatalf("K should clamp to n-1: %d", len(nbrs))
	}
	if _, err := g.Search(ds.Row(0), 0, index.Params{}); err != index.ErrBadK {
		t.Fatal("want ErrBadK")
	}
	if _, err := g.Search([]float32{1}, 1, index.Params{}); err == nil {
		t.Fatal("want dim error")
	}
	var st index.SearchStats
	g.Search(ds.Row(0), 2, index.Params{Stats: &st})
	if st.DistanceComps == 0 || g.Size() != 5 || g.Name() != "knng" {
		t.Fatal("metadata wrong")
	}
}

func TestRegistry(t *testing.T) {
	ds := dataset.Uniform(80, 4, 11)
	idx, err := index.Build("knng", ds.Data, 80, 4, vec.L2, map[string]int{"k": 5, "iters": 5, "treeinit": 1})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Name() != "knng" {
		t.Fatal("name wrong")
	}
	if _, err := index.Build("knng", ds.Data, 80, 4, vec.L2, map[string]int{"zz": 1}); err == nil {
		t.Fatal("want unknown-option error")
	}
}

// TestExactWinsOverTreeInit: a recipe that sets both init flags builds
// the exact graph every time. The flags were read in map order, so one
// recipe built an Exact graph on some runs and a TreeInit graph on
// others, and a recovered collection could serve a different index
// from the one it logged. One NN-Descent round and a beam of k keep
// the two graphs' hits apart.
func TestExactWinsOverTreeInit(t *testing.T) {
	const n, dim, k = 1000, 32, 10
	ds := dataset.Uniform(n, dim, 5)
	qs := ds.Queries(20, 0.05, 9)
	hits := func(idx index.Index) string {
		var out []topk.Result
		for _, q := range qs {
			res, err := idx.Search(q, k, index.Params{Ef: k})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res...)
		}
		return fmt.Sprint(out)
	}
	exact, err := Build(ds.Data, n, dim, Config{K: 8, MaxIter: 1, Init: Exact, Metric: vec.L2})
	if err != nil {
		t.Fatal(err)
	}
	want := hits(exact)
	for i := 0; i < 20; i++ {
		idx, err := index.Build("knng", ds.Data, n, dim, vec.L2, map[string]int{"k": 8, "iters": 1, "exact": 1, "treeinit": 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := hits(idx); got != want {
			t.Fatalf("build %d: hits differ from the exact graph's:\n got %s\nwant %s", i, got, want)
		}
	}
}
