package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"vdbms"
	"vdbms/internal/dataset"
	"vdbms/internal/dist"
	"vdbms/internal/executor"
	"vdbms/internal/index"
	"vdbms/internal/index/hnsw"
	"vdbms/internal/index/ivf"
	"vdbms/internal/planner"
	"vdbms/internal/quant"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// E9 — hardware-acceleration analog: the register-blocked 4-bit PQ
// scan vs the memory-table ADC scan (Quick ADC, Section 2.3(1)).
func init() {
	register("E9", "register-resident PQ LUT scan beats the in-memory float table scan", runE9)
}

func runE9(w io.Writer, scale int) {
	nCodes := scaled(100000, scale, 20000)
	train := dataset.Clustered(2000, 32, 8, 0.4, 1)
	pq, err := quant.TrainPQ(train.Data, train.Count, train.Dim, quant.PQConfig{M: 16, Ks: 16, Seed: 1, MaxIter: 10})
	if err != nil {
		fmt.Fprintf(w, "E9: %v\n", err)
		return
	}
	// Synthesize a large code matrix by repeated encoding.
	codes := make([]byte, nCodes*pq.M)
	for i := 0; i < nCodes; i++ {
		pq.Encode(train.Row(i%train.Count), codes[i*pq.M:(i+1)*pq.M])
	}
	packed, err := pq.PackCodes4(codes, nCodes)
	if err != nil {
		fmt.Fprintf(w, "E9: %v\n", err)
		return
	}
	q := train.Queries(1, 0.05, 2)[0]
	tab := pq.ADC(q)
	ft, err := tab.Quantize()
	if err != nil {
		fmt.Fprintf(w, "E9: %v\n", err)
		return
	}
	out := make([]float32, nCodes)
	iters := 5
	naive := Timed(iters, func() { tab.DistanceBatchNaive(codes, out) })
	fast := Timed(iters, func() { ft.DistanceBatch4(packed, out) })
	t := NewTable(fmt.Sprintf("E9 PQ scan kernels (M=16, Ks=16, %d codes)", nCodes),
		"kernel", "ns/code", "codes/sec", "speedup")
	nsPer := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(nCodes) }
	t.AddRow("ADC float table", nsPer(naive), QPS(naive)*float64(nCodes), 1.0)
	t.AddRow("packed 4-bit LUT", nsPer(fast), QPS(fast)*float64(nCodes), float64(naive)/float64(fast))
	t.Print(w)
	fmt.Fprintln(w, "expected shape: packed LUT scan faster (the SIMD-shuffle effect; magnitude is Go's, not AVX's)")
}

// E10 — batched queries: answering a batch together amortizes
// scheduling and cache misses (Section 2.1(3) / Milvus).
func init() { register("E10", "batched execution amortizes per-query overhead", runE10) }

func runE10(w io.Writer, scale int) {
	n := scaled(8000, scale, 2000)
	ds := dataset.Clustered(n, 32, 16, 0.4, 1)
	h, err := hnsw.Build(ds.Data, ds.Count, ds.Dim, hnsw.Config{M: 8, Seed: 1})
	if err != nil {
		fmt.Fprintf(w, "E10: %v\n", err)
		return
	}
	env, err := executor.NewEnv(ds.Data, ds.Count, ds.Dim, nil, h, nil)
	if err != nil {
		fmt.Fprintf(w, "E10: %v\n", err)
		return
	}
	qs := ds.Queries(256, 0.05, 2)
	plan := planner.Plan{Kind: planner.SingleStage}
	single := Timed(1, func() {
		for _, q := range qs {
			env.Execute(plan, q, 10, nil, executor.Options{Ef: 64}) //nolint:errcheck
		}
	})
	batched := Timed(1, func() {
		env.SearchBatch(plan, qs, 10, nil, executor.Options{Ef: 64}) //nolint:errcheck
	})
	t := NewTable(fmt.Sprintf("E10 batched queries (n=%d, batch=%d, hnsw ef=64)", n, len(qs)),
		"mode", "total", "per-query", "speedup")
	t.AddRow("one-at-a-time", single, single/time.Duration(len(qs)), 1.0)
	t.AddRow("batched", batched, batched/time.Duration(len(qs)), float64(single)/float64(batched))
	t.Print(w)
	fmt.Fprintln(w, "expected shape: batched >= 1x (speedup scales with cores; single-core machines see ~1x)")

	// Shared-bucket batching on IVF: each probed bucket is streamed
	// once for all interested queries (the commonality-exploiting
	// technique of [50, 79]), independent of core count.
	iv, err := ivf.Build(ds.Data, ds.Count, ds.Dim, ivf.Config{NList: 64, Seed: 1})
	if err != nil {
		fmt.Fprintf(w, "E10: %v\n", err)
		return
	}
	ivSingle := Timed(3, func() {
		for _, q := range qs {
			iv.Search(q, 10, index.Params{NProbe: 8}) //nolint:errcheck
		}
	})
	ivBatch := Timed(3, func() {
		iv.SearchBatch(qs, 10, index.Params{NProbe: 8}) //nolint:errcheck
	})
	t2 := NewTable(fmt.Sprintf("E10b IVF shared-bucket batch (nlist=64, nprobe=8, overlap=%.1f queries/bucket)",
		iv.BucketOverlap(qs, 8)),
		"mode", "total", "per-query", "speedup")
	t2.AddRow("one-at-a-time", ivSingle, ivSingle/time.Duration(len(qs)), 1.0)
	t2.AddRow("shared-bucket", ivBatch, ivBatch/time.Duration(len(qs)), float64(ivSingle)/float64(ivBatch))
	t2.Print(w)
	fmt.Fprintln(w, "expected shape: shared-bucket >= 1x even on one core (bucket rows stream through cache once)")
}

// E11 — distributed search: scatter-gather recall is preserved across
// shard counts; index-guided partitioning lets routed queries touch a
// fraction of shards (Section 2.3(2)).
func init() {
	register("E11", "scatter-gather preserves recall; cluster partitioning cuts fan-out", runE11)
}

func runE11(w io.Writer, scale int) {
	n := scaled(8000, scale, 2000)
	ds := dataset.Clustered(n, 32, 16, 0.4, 1)
	qs := ds.Queries(20, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)

	build := func(p dist.Partition) (*dist.Router, error) {
		shards, err := dist.BuildShards(vdbms.Schema{Dim: ds.Dim}, ds.Data, nil, p, "hnsw", map[string]int{"m": 8})
		if err != nil {
			return nil, err
		}
		return dist.NewRouter(shards, p.Centroids), nil
	}
	search := func(router *dist.Router, probes int) ([][]topk.Result, time.Duration) {
		got := make([][]topk.Result, len(qs))
		mean := Timed(1, func() {
			for i, q := range qs {
				got[i], _, _ = router.Search(context.Background(), vdbms.SearchRequest{Vector: q, K: 10, Ef: 64}, probes)
			}
		}) / time.Duration(len(qs))
		return got, mean
	}

	t := NewTable(fmt.Sprintf("E11 distributed search (n=%d, d=32, k=10, ef=64)", n),
		"partitioning", "shards", "probes", "recall@10", "mean.latency")
	for _, parts := range []int{1, 2, 4, 8} {
		router, err := build(dist.PartitionRandom(ds.Count, parts, 7))
		if err != nil {
			fmt.Fprintf(w, "E11: %v\n", err)
			return
		}
		got, mean := search(router, 0)
		t.AddRow("random", parts, parts, sharedRecall(got, truth), mean)
	}
	p, err := dist.PartitionClustered(ds.Data, ds.Count, ds.Dim, 8, 5)
	if err != nil {
		fmt.Fprintf(w, "E11: %v\n", err)
		return
	}
	router, err := build(p)
	if err != nil {
		fmt.Fprintf(w, "E11: %v\n", err)
		return
	}
	for _, probes := range []int{1, 2, 4, 8} {
		got, mean := search(router, probes)
		t.AddRow("cluster-guided", 8, probes, sharedRecall(got, truth), mean)
	}
	t.Print(w)
	fmt.Fprintln(w, "expected shape: random partitioning holds recall at every shard count; cluster-guided reaches near-full recall probing 2-4 of 8 shards")
}

// E12 — out-of-place updates: a collection sustains interleaved writes
// and searches without index rebuild stalls — inserts append to the
// column, searches scan the rows the index trails exactly, and the
// background builder catches the index up off the write path; the
// rebuild-on-every-batch alternative pays a growing write cost
// (Section 2.3(3)).
func init() {
	register("E12", "out-of-place updates keep writes cheap vs rebuild-in-place", runE12)
}

func runE12(w io.Writer, scale int) {
	total := scaled(4000, scale, 1000)
	d := 16
	ds := dataset.Clustered(total, d, 8, 0.4, 1)
	batch := total / 8
	qs := ds.Queries(10, 0.05, 2)
	search := func(col *vdbms.Collection) [][]topk.Result {
		got := make([][]topk.Result, len(qs))
		for i, q := range qs {
			res, _ := col.Search(vdbms.SearchRequest{Vector: q, K: 10, Ef: 64})
			got[i] = res.Hits
		}
		return got
	}

	t := NewTable(fmt.Sprintf("E12 update strategies (%d inserts in %d batches, d=%d)", total, 8, d),
		"strategy", "ingest.time", "searches/batch.lat", "final.recall@10")

	// Strategy A: a collection writing out of place. The hnsw index is
	// created after the first batch; later batches append rows that the
	// background builder folds in once they pass the rebuild fraction.
	// Ingest time includes waiting for the last rebuild to install.
	col, err := vdbms.New().CreateCollection("e12", vdbms.Schema{Dim: d})
	if err != nil {
		fmt.Fprintf(w, "E12: %v\n", err)
		return
	}
	var colSearch time.Duration
	colIngest := Timed(1, func() {
		for i := 0; i < total; i++ {
			col.Insert(ds.Row(i), nil) //nolint:errcheck
			if (i+1)%batch == 0 {
				if i+1 == batch {
					col.CreateIndex("hnsw", map[string]int{"m": 8, "seed": 1}) //nolint:errcheck
				}
				colSearch += Timed(1, func() { search(col) })
			}
		}
		col.WaitForIndex()
	})

	// Strategy B: rebuild the whole index after every batch
	// (in-place maintenance of a data-dependent index).
	var rebuildSearch time.Duration
	var idx index.Index
	rebuildIngest := Timed(1, func() {
		for b := 1; b <= 8; b++ {
			rows := b * batch
			idx, _ = hnsw.Build(ds.Data[:rows*d], rows, d, hnsw.Config{M: 8, Seed: 1})
			rebuildSearch += Timed(1, func() {
				for _, q := range qs {
					idx.Search(q, 10, index.Params{Ef: 64}) //nolint:errcheck
				}
			})
		}
	})

	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	rebGot := make([][]topk.Result, len(qs))
	for i, q := range qs {
		rebGot[i], _ = idx.Search(q, 10, index.Params{Ef: 64})
	}
	t.AddRow("collection out-of-place", colIngest-colSearch, colSearch/8, sharedRecall(search(col), truth))
	t.AddRow("rebuild per batch", rebuildIngest-rebuildSearch, rebuildSearch/8, sharedRecall(rebGot, truth))
	t.Print(w)
	fmt.Fprintln(w, "expected shape: out-of-place ingest time far below rebuild-per-batch; both end at comparable recall")
}
