package nsg

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/index/graph"
	"vdbms/internal/vec"
)

func meanRecall(t *testing.T, g *graph.Index, ds *dataset.Dataset, ef, k, nq int) float64 {
	t.Helper()
	qs := ds.Queries(nq, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, k)
	var s float64
	for i, q := range qs {
		got, err := g.Search(q, k, index.Params{Ef: ef})
		if err != nil {
			t.Fatal(err)
		}
		s += dataset.Recall(got, truth[i])
	}
	return s / float64(nq)
}

func TestNSGRecallAndDegree(t *testing.T) {
	ds := dataset.Clustered(1200, 16, 8, 0.4, 1)
	g, err := Build(ds.Data, ds.Count, ds.Dim, Config{Variant: NSG, R: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := meanRecall(t, g, ds, 80, 10, 15); r < 0.85 {
		t.Fatalf("nsg recall = %v", r)
	}
	if d := graph.AvgDegree(g.Layers()[0]); d > 12 {
		t.Fatalf("avg degree %v exceeds R", d)
	}
	if g.Name() != "nsg" {
		t.Fatal("name wrong")
	}
}

func TestVamanaRecall(t *testing.T) {
	ds := dataset.Clustered(1200, 16, 8, 0.4, 3)
	g, err := Build(ds.Data, ds.Count, ds.Dim, Config{Variant: Vamana, R: 12, Alpha: 1.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := meanRecall(t, g, ds, 80, 10, 15); r < 0.85 {
		t.Fatalf("vamana recall = %v", r)
	}
	if g.Name() != "vamana" {
		t.Fatal("name wrong")
	}
}

func TestAllNodesReachable(t *testing.T) {
	ds := dataset.Clustered(500, 8, 20, 0.1, 5) // many tight clusters invite disconnection
	g, err := Build(ds.Data, ds.Count, ds.Dim, Config{Variant: Vamana, R: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reach := make([]bool, ds.Count)
	stack := []int32{g.Entries()[0]}
	reach[g.Entries()[0]] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range g.Layers()[0].Neighbors(v) {
			if !reach[nb] {
				reach[nb] = true
				count++
				stack = append(stack, nb)
			}
		}
	}
	if count != ds.Count {
		t.Fatalf("only %d of %d nodes reachable from medoid", count, ds.Count)
	}
}

func TestAlphaAblationKeepsMoreEdges(t *testing.T) {
	ds := dataset.Clustered(600, 16, 6, 0.4, 9)
	tight, err := Build(ds.Data, ds.Count, ds.Dim, Config{Variant: Vamana, R: 16, Alpha: 1.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Build(ds.Data, ds.Count, ds.Dim, Config{Variant: Vamana, R: 16, Alpha: 1.6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if graph.AvgDegree(loose.Layers()[0]) < graph.AvgDegree(tight.Layers()[0]) {
		t.Fatalf("alpha=1.6 degree %v below alpha=1.0 degree %v", graph.AvgDegree(loose.Layers()[0]), graph.AvgDegree(tight.Layers()[0]))
	}
}

func TestValidationAndStats(t *testing.T) {
	if _, err := Build([]float32{1}, 2, 2, Config{}); err == nil {
		t.Fatal("want shape error")
	}
	if _, err := Build(make([]float32, 8), 4, 2, Config{Variant: Variant(9)}); err == nil {
		t.Fatal("want variant error")
	}
	ds := dataset.Uniform(80, 4, 11)
	g, err := Build(ds.Data, 80, 4, Config{R: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Search(ds.Row(0), 0, index.Params{}); err != index.ErrBadK {
		t.Fatal("want ErrBadK")
	}
	if _, err := g.Search([]float32{1}, 1, index.Params{}); err == nil {
		t.Fatal("want dim error")
	}
	var st index.SearchStats
	g.Search(ds.Row(0), 3, index.Params{Stats: &st})
	if st.DistanceComps == 0 || g.Size() != 80 {
		t.Fatal("stats wrong")
	}
}

func TestRegistry(t *testing.T) {
	ds := dataset.Uniform(60, 4, 13)
	for _, name := range []string{"nsg", "vamana"} {
		idx, err := index.Build(name, ds.Data, 60, 4, vec.L2, map[string]int{"r": 6, "l": 12})
		if err != nil || idx.Name() != name {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := index.Build("nsg", ds.Data, 60, 4, vec.L2, map[string]int{"zz": 1}); err == nil {
		t.Fatal("want unknown-option error")
	}
	// Each variant takes only the keys its build reads.
	for name, key := range map[string]string{"nsg": "alpha100", "vamana": "trials", "fanng": "alpha100"} {
		if _, err := index.Build(name, ds.Data, 60, 4, vec.L2, map[string]int{key: 1}); !errors.Is(err, index.ErrOption) {
			t.Fatalf("%s %s: %v, want ErrOption", name, key, err)
		}
	}
}

func TestFANNGRecall(t *testing.T) {
	ds := dataset.Clustered(1000, 16, 6, 0.4, 21)
	g, err := Build(ds.Data, ds.Count, ds.Dim, Config{Variant: FANNG, R: 12, Trials: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "fanng" {
		t.Fatal("name wrong")
	}
	if r := meanRecall(t, g, ds, 80, 10, 15); r < 0.8 {
		t.Fatalf("fanng recall = %v", r)
	}
	if d := graph.AvgDegree(g.Layers()[0]); d > 12 {
		t.Fatalf("avg degree %v exceeds R", d)
	}
}

func TestFANNGRegistry(t *testing.T) {
	ds := dataset.Uniform(60, 4, 23)
	idx, err := index.Build("fanng", ds.Data, 60, 4, vec.L2, map[string]int{"r": 6, "trials": 6})
	if err != nil || idx.Name() != "fanng" {
		t.Fatalf("%v", err)
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

// TestBuildIdentity: for a fixed seed the frozen graphs are, edge for
// edge, the ones the map-based traversal this package was built on until
// PR 16 produced (the hashes were taken from that build): NSG's search
// trials and orphan repair, Vamana's two passes and FANNG's greedy walks
// all run on the shared traversal.
func TestBuildIdentity(t *testing.T) {
	ds := dataset.Clustered(2000, 32, 8, 1.0, 7)
	for _, tc := range []struct {
		v    Variant
		want uint64
	}{{NSG, 0xb2aa07ae178b2d}, {Vamana, 0xcc9931cdb5a2352b}, {FANNG, 0x5ea25f526f252857}} {
		g, err := Build(ds.Data, ds.Count, ds.Dim, Config{Variant: tc.v, R: 16, Seed: 3, Trials: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := slabHash(g.Layers()[0]); got != tc.want {
			t.Errorf("%s hashes to %#x, want %#x", g.Name(), got, tc.want)
		}
	}
}
