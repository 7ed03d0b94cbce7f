// Benchmarks: one testing.B target per experiment in DESIGN.md's
// index (E1–E13; E11 is in dist_bench_test.go, an external test
// package, because internal/dist imports this package).
// cmd/vdbms-bench prints the full parameter-sweep tables; these
// benchmarks pin the hot path of each experiment so
// `go test -bench=. -benchmem` tracks regressions.
package vdbms

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/executor"
	"vdbms/internal/filter"
	"vdbms/internal/index"
	"vdbms/internal/index/diskann"
	"vdbms/internal/index/graph"
	"vdbms/internal/index/hnsw"
	"vdbms/internal/index/ivf"
	"vdbms/internal/index/lsh"
	"vdbms/internal/index/nsg"
	"vdbms/internal/index/nsw"
	"vdbms/internal/index/tree"
	"vdbms/internal/planner"
	"vdbms/internal/quant"
	"vdbms/internal/secure"
	"vdbms/internal/vec"
)

// benchData lazily builds the shared benchmark dataset and indexes so
// each is constructed once regardless of which benchmarks run.
var benchData struct {
	once sync.Once
	ds   *dataset.Dataset
	qs   [][]float32
	hnsw *graph.Index
	ivf  *ivf.IVF
}

func setupBench(b *testing.B) (*dataset.Dataset, [][]float32) {
	b.Helper()
	benchData.once.Do(func() {
		benchData.ds = dataset.Clustered(10000, 64, 32, 0.4, 1)
		benchData.qs = benchData.ds.Queries(64, 0.05, 2)
		var err error
		benchData.hnsw, err = hnsw.Build(benchData.ds.Data, benchData.ds.Count, benchData.ds.Dim, hnsw.Config{M: 12, Seed: 1})
		if err != nil {
			panic(err)
		}
		benchData.ivf, err = ivf.Build(benchData.ds.Data, benchData.ds.Count, benchData.ds.Dim, ivf.Config{NList: 100, Seed: 1})
		if err != nil {
			panic(err)
		}
	})
	return benchData.ds, benchData.qs
}

// BenchmarkE1Scores measures the basic similarity-score kernels
// (experiment E1a: score design).
func BenchmarkE1Scores(b *testing.B) {
	ds, qs := setupBench(b)
	row := ds.Row(17)
	for _, c := range vec.DefaultCandidates() {
		b.Run(c.Name, func(b *testing.B) {
			q := qs[0]
			for i := 0; i < b.N; i++ {
				_ = c.Fn(q, row)
			}
		})
	}
}

// BenchmarkE1bContrast measures the relative-contrast statistic used
// by the curse-of-dimensionality sweep (E1b).
func BenchmarkE1bContrast(b *testing.B) {
	ds, qs := setupBench(b)
	rows := ds.Rows()[:1000]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.RelativeContrast(vec.SquaredL2, rows, qs[i%len(qs)])
	}
}

// BenchmarkE2LSH measures LSH search (E2).
func BenchmarkE2LSH(b *testing.B) {
	ds, qs := setupBench(b)
	l, err := lsh.Build(ds.Data, ds.Count, ds.Dim, lsh.Config{L: 8, K: 8, Family: lsh.PStable, W: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Search(qs[i%len(qs)], 10, index.Params{}) //nolint:errcheck
	}
}

// BenchmarkE3IVF measures IVF search across nprobe (E3).
func BenchmarkE3IVF(b *testing.B) {
	_, qs := setupBench(b)
	for _, np := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("nprobe=%d", np), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchData.ivf.Search(qs[i%len(qs)], 10, index.Params{NProbe: np}) //nolint:errcheck
			}
		})
	}
}

// BenchmarkE4Quant measures PQ encode and ADC table construction (E4).
func BenchmarkE4Quant(b *testing.B) {
	ds, qs := setupBench(b)
	pq, err := quant.TrainPQ(ds.Data[:2000*ds.Dim], 2000, ds.Dim, quant.PQConfig{M: 8, Ks: 64, Seed: 1, MaxIter: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		code := make([]byte, pq.M)
		for i := 0; i < b.N; i++ {
			pq.Encode(ds.Row(i%ds.Count), code)
		}
	})
	b.Run("adc-table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pq.ADC(qs[i%len(qs)])
		}
	})
	b.Run("adc-distance", func(b *testing.B) {
		tab := pq.ADC(qs[0])
		code := pq.Encode(ds.Row(0), nil)
		for i := 0; i < b.N; i++ {
			tab.Distance(code)
		}
	})
}

// BenchmarkE5Trees measures randomized-tree forest search (E5).
func BenchmarkE5Trees(b *testing.B) {
	ds, qs := setupBench(b)
	tr, err := tree.Build(ds.Data, ds.Count, ds.Dim, tree.Config{Rule: tree.RandomTop5, Trees: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(qs[i%len(qs)], 10, index.Params{Ef: 256}) //nolint:errcheck
	}
}

// BenchmarkE6Graphs measures the graph-index search kernels (E6).
func BenchmarkE6Graphs(b *testing.B) {
	ds, qs := setupBench(b)
	b.Run("hnsw/ef=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchData.hnsw.Search(qs[i%len(qs)], 10, index.Params{Ef: 64}) //nolint:errcheck
		}
	})
	g, err := nsw.Build(ds.Data[:4000*ds.Dim], 4000, ds.Dim, nsw.Config{M: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("nsw/ef=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Search(qs[i%len(qs)], 10, index.Params{Ef: 64}) //nolint:errcheck
		}
	})
	v, err := nsg.Build(ds.Data[:4000*ds.Dim], 4000, ds.Dim, nsg.Config{Variant: nsg.Vamana, R: 12, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("vamana/ef=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.Search(qs[i%len(qs)], 10, index.Params{Ef: 64}) //nolint:errcheck
		}
	})
}

// BenchmarkE7Disk measures DiskANN beam search including I/O (E7).
func BenchmarkE7Disk(b *testing.B) {
	ds, qs := setupBench(b)
	path := filepath.Join(b.TempDir(), "bench.diskann")
	da, err := diskann.Build(ds.Data[:4000*ds.Dim], 4000, ds.Dim, path, diskann.Config{R: 16, Beam: 4, Seed: 1, CachePages: 512})
	if err != nil {
		b.Fatal(err)
	}
	defer da.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		da.Search(qs[i%len(qs)], 10, index.Params{Ef: 40}) //nolint:errcheck
	}
}

// BenchmarkE8Hybrid measures the four hybrid plans at 10% selectivity
// (E8).
func BenchmarkE8Hybrid(b *testing.B) {
	ds, qs := setupBench(b)
	attrs := filter.NewTable()
	if _, err := attrs.AddColumn("a", filter.Int64); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < ds.Count; i++ {
		attrs.AppendRow(map[string]filter.Value{"a": filter.IntV(int64(i * 7919 % 1000))}) //nolint:errcheck
	}
	env, err := executor.NewEnv(ds.Data, ds.Count, ds.Dim, nil, benchData.hnsw, attrs)
	if err != nil {
		b.Fatal(err)
	}
	preds := []filter.Predicate{{Column: "a", Op: filter.Lt, Value: filter.IntV(100)}}
	for _, plan := range []planner.Plan{
		{Kind: planner.BruteForce},
		{Kind: planner.PreFilter},
		{Kind: planner.PostFilter, Alpha: 4},
		{Kind: planner.SingleStage},
	} {
		b.Run(plan.Kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env.Execute(plan, qs[i%len(qs)], 10, preds, executor.Options{Ef: 100}) //nolint:errcheck
			}
		})
	}
}

// BenchmarkE9FastScan compares the float ADC table scan with the
// packed 4-bit LUT scan (E9).
func BenchmarkE9FastScan(b *testing.B) {
	ds, qs := setupBench(b)
	pq, err := quant.TrainPQ(ds.Data[:2000*ds.Dim], 2000, ds.Dim, quant.PQConfig{M: 16, Ks: 16, Seed: 1, MaxIter: 10})
	if err != nil {
		b.Fatal(err)
	}
	n := 50000
	codes := make([]byte, n*pq.M)
	for i := 0; i < n; i++ {
		pq.Encode(ds.Row(i%ds.Count), codes[i*pq.M:(i+1)*pq.M])
	}
	packed, err := pq.PackCodes4(codes, n)
	if err != nil {
		b.Fatal(err)
	}
	tab := pq.ADC(qs[0])
	ft, err := tab.Quantize()
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float32, n)
	b.Run("adc-float-table", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			tab.DistanceBatchNaive(codes, out)
		}
	})
	b.Run("packed-4bit-lut", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			ft.DistanceBatch4(packed, out)
		}
	})
}

// BenchmarkE10Batch measures batched execution (E10).
func BenchmarkE10Batch(b *testing.B) {
	ds, qs := setupBench(b)
	env, err := executor.NewEnv(ds.Data, ds.Count, ds.Dim, nil, benchData.hnsw, nil)
	if err != nil {
		b.Fatal(err)
	}
	plan := planner.Plan{Kind: planner.SingleStage}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.SearchBatch(plan, qs, 10, nil, executor.Options{Ef: 64}) //nolint:errcheck
	}
}

// BenchmarkE13Secure measures the encrypted-domain scan of the ASPE
// secure k-NN scheme (E13).
func BenchmarkE13Secure(b *testing.B) {
	ds, qs := setupBench(b)
	key, err := secure.NewKey(ds.Dim, 7)
	if err != nil {
		b.Fatal(err)
	}
	srv := secure.NewServer(ds.Dim)
	n := 4000
	for i := 0; i < n; i++ {
		enc, err := key.EncryptVector(ds.Row(i))
		if err != nil {
			b.Fatal(err)
		}
		srv.Add(int64(i), enc) //nolint:errcheck
	}
	tok, err := key.EncryptQuery(qs[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.TopK(tok, 10) //nolint:errcheck
	}
}
