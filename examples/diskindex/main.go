// Disk-resident indexes: builds a DiskANN-style graph file and a
// SPANN-style posting-list file over the same collection and reports
// recall against I/Os per query (Section 2.2, disk-resident indexes).
//
//	go run ./examples/diskindex
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/index/diskann"
	"vdbms/internal/index/spann"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

const (
	n   = 10000
	dim = 64
)

func main() {
	dir, err := os.MkdirTemp("", "vdbms-diskindex-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	ds := dataset.Clustered(n, dim, 32, 0.4, 1)
	qs := ds.Queries(30, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)

	// DiskANN: full vectors + graph on disk, PQ codes in RAM.
	daPath := filepath.Join(dir, "vectors.diskann")
	da, err := diskann.Build(ds.Data, ds.Count, ds.Dim, daPath, diskann.Config{
		R: 24, Beam: 4, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer da.Close()
	if fi, err := os.Stat(daPath); err == nil {
		fmt.Printf("diskann file: %.1f MB for %d vectors (RAM holds only PQ codes)\n",
			float64(fi.Size())/(1<<20), n)
	}
	fmt.Println("\nDiskANN beam search:")
	for _, ef := range []int{20, 40, 80} {
		var st index.SearchStats
		got := make([][]topk.Result, len(qs))
		for i, q := range qs {
			got[i], _ = da.Search(q, 10, index.Params{Ef: ef, Stats: &st})
		}
		fmt.Printf("  ef=%-3d recall@10=%.3f  record reads/query=%.1f\n",
			ef, dataset.MeanRecall(got, truth), float64(st.IOReads)/float64(len(qs)))
	}

	// SPANN: centroids in RAM, closure-replicated posting lists on disk.
	spPath := filepath.Join(dir, "postings.spann")
	sp, err := spann.Build(ds.Data, ds.Count, ds.Dim, spPath, spann.Config{
		NList: 128, ClosureEps: 0.25, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sp.Close()
	rf, err := sp.ReplicationFactor()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSPANN posting lists (replication factor %.2f):\n", rf)
	for _, nprobe := range []int{1, 2, 4, 8} {
		var st index.SearchStats
		got := make([][]topk.Result, len(qs))
		for i, q := range qs {
			got[i], _ = sp.Search(q, 10, index.Params{NProbe: nprobe, Stats: &st})
		}
		fmt.Printf("  nprobe=%-2d recall@10=%.3f  pages read/query=%.1f\n",
			nprobe, dataset.MeanRecall(got, truth), float64(st.IOReads)/float64(len(qs)))
	}
	fmt.Println("\nboth indexes answer from disk with a handful of I/Os per query,")
	fmt.Println("the property that lets a single node serve collections larger than RAM.")
}
