package index

import (
	"math"
	"runtime"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/topk"
)

// workerCounts is the part-count sweep (SetScanParts): serial, two
// partitions, and one per CPU (plus an overcommit point so partition
// count > pool width is covered even on small machines).
func workerCounts() []int {
	return []int{1, 2, runtime.NumCPU(), runtime.NumCPU() + 3}
}

func sameResults(t *testing.T, label string, want, got []topk.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs serial %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID ||
			math.Float32bits(want[i].Dist) != math.Float32bits(got[i].Dist) {
			t.Fatalf("%s: result %d = %+v, serial %+v", label, i, got[i], want[i])
		}
	}
}

// TestFlatParallelDeterminism: the partitioned flat scan must return
// byte-identical results to the serial scan at every part count, with
// and without predicates.
func TestFlatParallelDeterminism(t *testing.T) {
	t.Cleanup(SetScanParts(0))
	// Clustered data with a small sigma produces duplicate-ish rows and
	// distance ties — the boundary regime that exposes merge bugs.
	ds := dataset.Clustered(6000, 16, 5, 0.05, 3)
	f, err := NewFlat(ds.Data, ds.Count, ds.Dim, nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(8, 0.05, 7)
	pred := func(id int64) bool { return id%3 != 0 }
	for _, q := range qs {
		SetScanParts(1)
		serial, err := f.Search(q, 10, Params{})
		if err != nil {
			t.Fatal(err)
		}
		serialPred, err := f.Search(q, 10, Params{Filter: pred})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts() {
			SetScanParts(w)
			got, err := f.Search(q, 10, Params{})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "flat", serial, got)
			got, err = f.Search(q, 10, Params{Filter: pred})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "flat+filter", serialPred, got)
		}
	}
}

// TestFlatParallelStats: the partitioned scan must report the same
// distance-computation total as the serial scan, plus its partition
// count.
func TestFlatParallelStats(t *testing.T) {
	t.Cleanup(SetScanParts(0))
	ds := dataset.Uniform(4096, 8, 11)
	f, _ := NewFlat(ds.Data, ds.Count, ds.Dim, nil)
	q := ds.Row(0)
	var serial SearchStats
	SetScanParts(1)
	if _, err := f.Search(q, 5, Params{Stats: &serial}); err != nil {
		t.Fatal(err)
	}
	if serial.Partitions != 1 {
		t.Fatalf("serial partitions = %d, want 1", serial.Partitions)
	}
	var par SearchStats
	SetScanParts(4)
	if _, err := f.Search(q, 5, Params{Stats: &par}); err != nil {
		t.Fatal(err)
	}
	if par.DistanceComps != serial.DistanceComps {
		t.Fatalf("parallel comps %d != serial %d", par.DistanceComps, serial.DistanceComps)
	}
	if par.Partitions != 4 {
		t.Fatalf("parallel partitions = %d, want 4", par.Partitions)
	}
}

// BenchmarkFlatSearch compares the serial and parallel exhaustive scan
// at the acceptance scale (100k x 128-d). On a machine with
// GOMAXPROCS >= 4 the parallel variant is expected to be >= 2x faster.
func BenchmarkFlatSearch(b *testing.B) {
	ds := dataset.Uniform(100_000, 128, 1)
	f, err := NewFlat(ds.Data, ds.Count, ds.Dim, nil)
	if err != nil {
		b.Fatal(err)
	}
	q := ds.Queries(1, 0.1, 2)[0]
	b.Run("serial", func(b *testing.B) {
		defer SetScanParts(1)()
		b.SetBytes(int64(ds.Count) * int64(ds.Dim) * 4)
		for i := 0; i < b.N; i++ {
			if _, err := f.Search(q, 10, Params{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.SetBytes(int64(ds.Count) * int64(ds.Dim) * 4)
		for i := 0; i < b.N; i++ {
			if _, err := f.Search(q, 10, Params{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
