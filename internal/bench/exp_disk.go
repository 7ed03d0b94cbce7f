package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/index/diskann"
	"vdbms/internal/index/spann"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// E7 — disk-resident indexes: DiskANN's PQ-guided beam search bounds
// record reads per query; SPANN closure assignment raises recall at
// equal probes; caches absorb repeat traffic (Section 2.2,
// disk-resident indexes).
func init() {
	register("E7", "disk indexes bound I/O per query; closure assignment helps SPANN", runE7)
}

func runE7(w io.Writer, scale int) {
	n := scaled(4000, scale, 1000)
	ds := dataset.Clustered(n, 32, 16, 0.4, 1)
	qs := ds.Queries(25, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	dir, err := os.MkdirTemp("", "vdbms-e7-")
	if err != nil {
		fmt.Fprintf(w, "E7: %v\n", err)
		return
	}
	defer os.RemoveAll(dir)

	t := NewTable(fmt.Sprintf("E7a DiskANN (n=%d, d=32, R=16)", n),
		"variant", "ef", "recall@10", "IO/query", "cache.hit/query")
	run := func(name string, cfg diskann.Config, efs []int) {
		da, err := diskann.Build(ds.Data, n, ds.Dim, filepath.Join(dir, name+".diskann"), cfg)
		if err != nil {
			fmt.Fprintf(w, "E7 %s: %v\n", name, err)
			return
		}
		defer da.Close()
		for _, ef := range efs {
			var st index.SearchStats
			got := make([][]topk.Result, len(qs))
			for i, q := range qs {
				got[i], _ = da.Search(q, 10, index.Params{Ef: ef, Stats: &st})
			}
			t.AddRow(name, ef,
				sharedRecall(got, truth),
				float64(st.IOReads)/float64(len(qs)),
				float64(st.CacheHits)/float64(len(qs)))
		}
	}
	run("pq-guided", diskann.Config{R: 16, Beam: 4, Seed: 1}, []int{20, 40, 80})
	run("pq-guided+cache", diskann.Config{R: 16, Beam: 4, Seed: 1, CachePages: n}, []int{40, 40})
	run("no-pq (ablation)", diskann.Config{R: 16, Beam: 4, Seed: 1, NoPQ: true}, []int{40})
	t.Print(w)
	fmt.Fprintln(w, "expected shape: PQ guidance reads ~ef records; no-PQ multiplies I/O; warm cache converts reads to hits")

	t2 := NewTable(fmt.Sprintf("E7b SPANN (n=%d, d=32, nlist=%d)", n, 64),
		"closure.eps", "repl.factor", "nprobe", "recall@10", "IO/query")
	for _, eps := range []float64{0, 0.25} {
		sp, err := spann.Build(ds.Data, n, ds.Dim, filepath.Join(dir, fmt.Sprintf("e%.2f.spann", eps)), spann.Config{
			NList: 64, ClosureEps: eps, Seed: 1, PageSize: 4096,
		})
		if err != nil {
			fmt.Fprintf(w, "E7b: %v\n", err)
			return
		}
		rf, err := sp.ReplicationFactor()
		if err != nil {
			fmt.Fprintf(w, "E7b: %v\n", err)
			sp.Close()
			return
		}
		for _, np := range []int{1, 2, 4, 8} {
			var st index.SearchStats
			got := make([][]topk.Result, len(qs))
			for i, q := range qs {
				got[i], _ = sp.Search(q, 10, index.Params{NProbe: np, Stats: &st})
			}
			t2.AddRow(eps, rf, np, sharedRecall(got, truth), float64(st.IOReads)/float64(len(qs)))
		}
		sp.Close()
	}
	t2.Print(w)
	fmt.Fprintln(w, "expected shape: closure (eps=0.25) beats eps=0 recall at small nprobe, at the cost of replication > 1")
}
