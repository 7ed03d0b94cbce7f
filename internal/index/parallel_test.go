package index

import (
	"math"
	"runtime"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/obs"
	"vdbms/internal/pool"
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

var raceEnabled bool // set by race_test.go

// TestScanSplitsOnlyOntoIdleCores: a full-column scan splits only onto
// the pool's free tokens. With every token held — every core serving a
// query — a 100 000 × 8 scan runs in one part on its caller: it starts
// no goroutine (a filter sampling the goroutine count sees none beside
// the test's own) and allocates no more than a one-part scan forced by
// SetScanParts (not under the race detector, whose sync.Pool drops
// scans on purpose). Its bytes equal those of the same scan on an idle
// pool, which splits to the pool's width.
func TestScanSplitsOnlyOntoIdleCores(t *testing.T) {
	ds := dataset.Uniform(100_000, 8, 13)
	f, err := NewFlat(ds.Data, ds.Count, ds.Dim, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Row(7)
	p := pool.Default()
	scan := func(label string, filter func(int64) bool) ([]topk.Result, SearchStats) {
		t.Helper()
		var st SearchStats
		res, err := f.Search(q, 10, Params{Stats: &st, Filter: filter})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res, st
	}

	idle, st := scan("idle", nil)
	if st.Partitions != int64(p.Size()) {
		t.Fatalf("idle pool of width %d: %d partitions", p.Size(), st.Partitions)
	}
	restore := SetScanParts(1)
	forced := testing.AllocsPerRun(20, func() { scan("forced one part", nil) })
	restore()

	held := p.TryAcquire(p.Size())
	defer p.Release(held)
	if held != p.Size() {
		t.Fatalf("%d of %d tokens free before the loaded scans", held, p.Size())
	}
	declined := obs.ScanPartsDeclined.Value()
	loaded, st := scan("loaded", nil)
	if st.Partitions != 1 || st.DistanceComps != int64(ds.Count) {
		t.Fatalf("every token held: %d partitions, %d comps; want 1 and %d", st.Partitions, st.DistanceComps, ds.Count)
	}
	if got, want := obs.ScanPartsDeclined.Value()-declined, int64(p.Size()-1); got != want {
		t.Fatalf("every token held: %d parts declined, want %d", got, want)
	}
	sameResults(t, "loaded vs idle", idle, loaded)
	if allocs := testing.AllocsPerRun(20, func() { scan("loaded", nil) }); allocs > forced && !raceEnabled {
		t.Fatalf("every token held: %.1f allocs per scan, a forced one-part scan makes %.1f", allocs, forced)
	}
	base := runtime.NumGoroutine()
	most := 0
	filtered, st := scan("loaded, filtered", func(int64) bool {
		most = max(most, runtime.NumGoroutine())
		return true
	})
	if st.Partitions != 1 || most > base {
		t.Fatalf("every token held: %d partitions, %d goroutines during the scan, %d before", st.Partitions, most, base)
	}
	sameResults(t, "loaded filtered vs idle", idle, filtered)
}
