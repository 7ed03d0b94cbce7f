package nsw

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/index/graph"
	"vdbms/internal/vec"
)

func TestNSWRecall(t *testing.T) {
	ds := dataset.Clustered(1500, 16, 8, 0.4, 1)
	g, err := Build(ds.Data, ds.Count, ds.Dim, Config{M: 10})
	if err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(20, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	var s float64
	for i, q := range qs {
		got, err := g.Search(q, 10, index.Params{Ef: 80})
		if err != nil {
			t.Fatal(err)
		}
		s += dataset.Recall(got, truth[i])
	}
	if mean := s / 20; mean < 0.8 {
		t.Fatalf("nsw recall = %v", mean)
	}
}

func TestEfImprovesRecall(t *testing.T) {
	ds := dataset.Clustered(1500, 16, 8, 0.4, 3)
	g, err := Build(ds.Data, ds.Count, ds.Dim, Config{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(20, 0.05, 4)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	rec := func(ef int) float64 {
		var s float64
		for i, q := range qs {
			got, _ := g.Search(q, 10, index.Params{Ef: ef})
			s += dataset.Recall(got, truth[i])
		}
		return s / float64(len(qs))
	}
	lo, hi := rec(10), rec(200)
	if hi < lo {
		t.Fatalf("recall should grow with ef: %v -> %v", lo, hi)
	}
}

func TestDegreeGrowsUnbounded(t *testing.T) {
	// Flat NSW has no degree cap; mean degree ≈ 2M.
	ds := dataset.Uniform(500, 8, 5)
	g, err := Build(ds.Data, 500, 8, Config{M: 6})
	if err != nil {
		t.Fatal(err)
	}
	if d := graph.AvgDegree(g.Layers()[0]); d < 6 {
		t.Fatalf("avg degree = %v, want >= M", d)
	}
}

func TestValidationAndStats(t *testing.T) {
	if _, err := Build([]float32{1}, 2, 2, Config{}); err == nil {
		t.Fatal("want shape error")
	}
	ds := dataset.Uniform(60, 4, 7)
	g, _ := Build(ds.Data, 60, 4, Config{M: 4})
	if _, err := g.Search(ds.Row(0), 0, index.Params{}); err != index.ErrBadK {
		t.Fatal("want ErrBadK")
	}
	if _, err := g.Search([]float32{1}, 1, index.Params{}); err == nil {
		t.Fatal("want dim error")
	}
	var st index.SearchStats
	g.Search(ds.Row(0), 3, index.Params{Stats: &st})
	if st.DistanceComps == 0 || g.Size() != 60 || g.Name() != "nsw" {
		t.Fatal("metadata wrong")
	}
}

func TestSingleNode(t *testing.T) {
	g, err := Build([]float32{1, 2}, 1, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Search([]float32{0, 0}, 3, index.Params{})
	if err != nil || len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("single node search: %v %v", got, err)
	}
}

func TestRegistry(t *testing.T) {
	ds := dataset.Uniform(50, 4, 9)
	idx, err := index.Build("nsw", ds.Data, 50, 4, vec.L2, map[string]int{"m": 4, "efc": 16})
	if err != nil || idx.Name() != "nsw" {
		t.Fatalf("%v", err)
	}
	if _, err := index.Build("nsw", ds.Data, 50, 4, vec.L2, map[string]int{"zz": 1}); err == nil {
		t.Fatal("want unknown-option error")
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

// TestBuildIdentity: the frozen graph is, edge for edge, the one the
// map-based traversal this package was built on until PR 16 produced
// (the hash was taken from that build).
func TestBuildIdentity(t *testing.T) {
	ds := dataset.Clustered(3000, 32, 8, 1.0, 7)
	g, err := Build(ds.Data, ds.Count, ds.Dim, Config{M: 12})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := slabHash(g.Layers()[0]), uint64(0x5c5b10c81d11a00f); got != want {
		t.Errorf("graph hashes to %#x, want %#x", got, want)
	}
}
