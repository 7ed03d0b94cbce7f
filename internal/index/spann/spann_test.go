package spann

import (
	"os"
	"path/filepath"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/vec"
)

func buildSmall(t *testing.T, cfg Config) (*SPANN, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Clustered(2000, 16, 10, 0.4, 1)
	path := filepath.Join(t.TempDir(), "p.spann")
	sp, err := Build(ds.Data, ds.Count, ds.Dim, path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	return sp, ds
}

func meanRecall(t *testing.T, sp *SPANN, ds *dataset.Dataset, nprobe int) float64 {
	t.Helper()
	qs := ds.Queries(15, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	var s float64
	for i, q := range qs {
		got, err := sp.Search(q, 10, index.Params{NProbe: nprobe})
		if err != nil {
			t.Fatal(err)
		}
		s += dataset.Recall(got, truth[i])
	}
	return s / 15
}

func TestSPANNRecallAndIO(t *testing.T) {
	sp, ds := buildSmall(t, Config{NList: 32, Seed: 1})
	if r := meanRecall(t, sp, ds, 8); r < 0.8 {
		t.Fatalf("spann recall = %v", r)
	}
	q := ds.Queries(1, 0.05, 3)[0]
	var at4, at16 index.SearchStats
	sp.Search(q, 10, index.Params{NProbe: 4, Stats: &at4})
	if at4.IOReads == 0 || at4.DistanceComps == 0 || at4.BucketsProbed != 4 {
		t.Fatalf("work not counted: %+v", at4)
	}
	sp.Search(q, 10, index.Params{NProbe: 16, Stats: &at16})
	if at16.IOReads <= at4.IOReads {
		t.Fatalf("more probes should read more pages: %d vs %d", at16.IOReads, at4.IOReads)
	}
}

func TestClosureImprovesRecallAtSameProbes(t *testing.T) {
	plain, ds := buildSmall(t, Config{NList: 32, Seed: 1})
	closure, _ := buildSmall(t, Config{NList: 32, Seed: 1, ClosureEps: 0.25})
	rp := meanRecall(t, plain, ds, 2)
	rc := meanRecall(t, closure, ds, 2)
	if rc < rp-0.02 {
		t.Fatalf("closure recall %v should not trail plain %v", rc, rp)
	}
	if f, err := closure.ReplicationFactor(); err != nil || f <= 1 {
		t.Fatalf("closure replication factor = %v, want > 1", f)
	}
	if f, err := plain.ReplicationFactor(); err != nil || f != 1 {
		t.Fatalf("plain replication factor = %v, want 1", f)
	}
}

func TestDedupedResults(t *testing.T) {
	sp, ds := buildSmall(t, Config{NList: 32, Seed: 1, ClosureEps: 0.5, MaxReplicas: 4})
	got, err := sp.Search(ds.Row(0), 20, index.Params{NProbe: 16})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, r := range got {
		if seen[r.ID] {
			t.Fatalf("duplicate id %d in results", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestPredicates(t *testing.T) {
	sp, ds := buildSmall(t, Config{NList: 32, Seed: 1})
	got, err := sp.Search(ds.Row(0), 10, index.Params{NProbe: 32, Filter: func(id int64) bool { return id < 200 }})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.ID >= 200 {
			t.Fatalf("filter violated: %d", r.ID)
		}
	}
}

func TestValidationAndReopen(t *testing.T) {
	ds := dataset.Clustered(300, 8, 3, 0.4, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "x.spann")
	sp, err := Build(ds.Data, ds.Count, ds.Dim, path, Config{NList: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Search(ds.Row(0), 0, index.Params{}); err != index.ErrBadK {
		t.Fatal("want ErrBadK")
	}
	if _, err := sp.Search([]float32{1}, 1, index.Params{}); err == nil {
		t.Fatal("want dim error")
	}
	cents := sp.Centroids()
	sp.Close()
	re, err := Open(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.Search(ds.Row(0), 1, index.Params{}); err == nil {
		t.Fatal("want error before SetCentroids")
	}
	re.SetCentroids(cents)
	got, err := re.Search(ds.Row(5), 1, index.Params{NProbe: 8})
	if err != nil || len(got) != 1 || got[0].ID != 5 {
		t.Fatalf("reopened search = %v err=%v", got, err)
	}
	if _, err := Build([]float32{1}, 2, 2, path, Config{}); err == nil {
		t.Fatal("want shape error")
	}
	if _, err := Open(filepath.Join(dir, "missing"), Config{}); err == nil {
		t.Fatal("want open error")
	}
	if re.Name() != "spann" {
		t.Fatal("name wrong")
	}
}

// A file truncated after Build makes posting-list reads fail; Search
// and ReplicationFactor must return that error instead of panicking.
func TestTruncatedFileErrors(t *testing.T) {
	sp, ds := buildSmall(t, Config{NList: 16, Seed: 1})
	if err := os.Truncate(sp.f.Name(), sp.starts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Search(ds.Row(0), 5, index.Params{NProbe: 16}); err == nil {
		t.Fatal("search over a truncated file returned no error")
	}
	if _, err := sp.ReplicationFactor(); err == nil {
		t.Fatal("ReplicationFactor over a truncated file returned no error")
	}
}
