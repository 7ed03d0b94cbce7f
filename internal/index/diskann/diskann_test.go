package diskann

import (
	"os"
	"path/filepath"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/vec"
)

func buildSmall(t *testing.T, cfg Config) (*DiskANN, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Clustered(1200, 16, 6, 0.4, 1)
	path := filepath.Join(t.TempDir(), "g.diskann")
	da, err := Build(ds.Data, ds.Count, ds.Dim, path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { da.Close() })
	return da, ds
}

func TestDiskANNRecall(t *testing.T) {
	da, ds := buildSmall(t, Config{R: 16, Beam: 4, Seed: 1})
	qs := ds.Queries(15, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	var s float64
	var st index.SearchStats
	for i, q := range qs {
		got, err := da.Search(q, 10, index.Params{Ef: 60, Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		s += dataset.Recall(got, truth[i])
	}
	if mean := s / 15; mean < 0.8 {
		t.Fatalf("diskann recall = %v", mean)
	}
	if st.IOReads == 0 || st.DistanceComps == 0 || st.NodesVisited == 0 {
		t.Fatalf("work not counted: %+v", st)
	}
}

func TestIOsPerQueryBounded(t *testing.T) {
	da, ds := buildSmall(t, Config{R: 16, Beam: 4, Seed: 1})
	q := ds.Queries(1, 0.05, 3)[0]
	var st index.SearchStats
	if _, err := da.Search(q, 10, index.Params{Ef: 40, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	ios := st.IOReads
	// PQ-guided beam search reads roughly the expanded nodes, far
	// fewer than the collection size.
	if ios <= 0 || ios > 400 {
		t.Fatalf("I/Os per query = %d", ios)
	}
}

func TestNoPQAblationCostsMoreIO(t *testing.T) {
	guided, ds := buildSmall(t, Config{R: 16, Beam: 4, Seed: 1})
	naive, _ := buildSmall(t, Config{R: 16, Beam: 4, Seed: 1, NoPQ: true})
	q := ds.Queries(1, 0.05, 5)[0]
	var g, n index.SearchStats
	if _, err := guided.Search(q, 10, index.Params{Ef: 40, Stats: &g}); err != nil {
		t.Fatal(err)
	}
	if _, err := naive.Search(q, 10, index.Params{Ef: 40, Stats: &n}); err != nil {
		t.Fatal(err)
	}
	if n.IOReads <= g.IOReads {
		t.Fatalf("NoPQ should cost more I/O: %d vs %d", n.IOReads, g.IOReads)
	}
}

func TestCacheReducesIOs(t *testing.T) {
	da, ds := buildSmall(t, Config{R: 16, Beam: 4, Seed: 1, CachePages: 4096})
	q := ds.Queries(1, 0.05, 7)[0]
	var cold, warm index.SearchStats
	da.Search(q, 10, index.Params{Ef: 40, Stats: &cold})
	da.Search(q, 10, index.Params{Ef: 40, Stats: &warm})
	if warm.IOReads >= cold.IOReads {
		t.Fatalf("warm cache should cut I/Os: cold=%d warm=%d", cold.IOReads, warm.IOReads)
	}
	if warm.CacheHits == 0 || warm.IOReads+warm.CacheHits != cold.IOReads+cold.CacheHits {
		t.Fatalf("the same search must read the same records, cold %+v warm %+v", cold, warm)
	}
}

func TestPredicates(t *testing.T) {
	da, ds := buildSmall(t, Config{R: 16, Beam: 4, Seed: 1})
	got, err := da.Search(ds.Row(0), 5, index.Params{Ef: 60, Filter: func(id int64) bool { return id%2 == 0 }})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.ID%2 != 0 {
			t.Fatalf("filter violated: %d", r.ID)
		}
	}
}

func TestValidationAndReopen(t *testing.T) {
	ds := dataset.Clustered(300, 8, 3, 0.4, 9)
	dir := t.TempDir()
	path := filepath.Join(dir, "x.diskann")
	da, err := Build(ds.Data, ds.Count, ds.Dim, path, Config{R: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := da.Search(ds.Row(0), 0, index.Params{}); err != index.ErrBadK {
		t.Fatal("want ErrBadK")
	}
	if _, err := da.Search([]float32{1}, 1, index.Params{}); err == nil {
		t.Fatal("want dim error")
	}
	if da.Name() != "diskann" || da.Size() != 300 {
		t.Fatal("metadata wrong")
	}
	da.Close()
	// Re-open from file only.
	re, err := Open(path, Config{Beam: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.Search(ds.Row(5), 1, index.Params{Ef: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 5 {
		t.Fatalf("reopened search = %v", got)
	}
	if _, err := Open(filepath.Join(dir, "missing"), Config{}); err == nil {
		t.Fatal("want error for missing file")
	}
}

// A file truncated after Build makes record reads fail; Search must
// return that error instead of panicking, for both the PQ-guided and
// the NoPQ read paths.
func TestTruncatedFileSearchErrors(t *testing.T) {
	for _, noPQ := range []bool{false, true} {
		da, ds := buildSmall(t, Config{R: 16, Beam: 4, Seed: 1, NoPQ: noPQ})
		if err := os.Truncate(da.f.Name(), da.dataOff); err != nil {
			t.Fatal(err)
		}
		if _, err := da.Search(ds.Row(0), 5, index.Params{Ef: 40}); err == nil {
			t.Fatalf("NoPQ=%v: search over a truncated file returned no error", noPQ)
		}
	}
}
