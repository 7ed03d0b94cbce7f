package bench

import (
	"fmt"
	"io"
	"time"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/index/graph"
	"vdbms/internal/index/hnsw"
	"vdbms/internal/index/ivf"
	"vdbms/internal/index/knng"
	"vdbms/internal/index/lsh"
	"vdbms/internal/index/nsg"
	"vdbms/internal/index/nsw"
	"vdbms/internal/index/spectral"
	"vdbms/internal/index/tree"
	"vdbms/internal/quant"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// recallQPS runs all queries through idx and reports mean recall@k and
// QPS.
func recallQPS(idx index.Index, qs [][]float32, truth [][]topk.Result, k int, p index.Params) (float64, float64) {
	got := make([][]topk.Result, len(qs))
	mean := Timed(1, func() {
		for i, q := range qs {
			got[i], _ = idx.Search(q, k, p)
		}
	})
	return sharedRecall(got, truth), QPS(mean / time.Duration(len(qs)) * 1)
}

// E2 — LSH: more tables L raise recall at higher probe cost; larger K
// sharpens buckets (fewer candidates, lower recall) (Section 2.2(1)).
func init() { register("E2", "LSH L and K trade recall vs probe cost", runE2) }

func runE2(w io.Writer, scale int) {
	n := scaled(5000, scale, 1000)
	ds := dataset.Clustered(n, 32, 16, 0.4, 1)
	qs := ds.Queries(30, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	t := NewTable(fmt.Sprintf("E2 LSH sweep (p-stable, n=%d, d=32, k=10)", n),
		"L", "K", "recall@10", "cand.frac", "QPS")
	for _, cfg := range []struct{ l, k int }{
		{1, 8}, {2, 8}, {4, 8}, {8, 8}, {16, 8},
		{8, 2}, {8, 4}, {8, 16},
	} {
		l, err := lsh.Build(ds.Data, ds.Count, ds.Dim, lsh.Config{
			L: cfg.l, K: cfg.k, Family: lsh.PStable, W: 8, Seed: 3,
		})
		if err != nil {
			fmt.Fprintf(w, "E2 build error: %v\n", err)
			return
		}
		var cands int
		for _, q := range qs {
			cands += l.CandidateCount(q, 0)
		}
		rec, qps := recallQPS(l, qs, truth, 10, index.Params{})
		t.AddRow(cfg.l, cfg.k, rec, float64(cands)/float64(len(qs))/float64(n), qps)
	}
	t.Print(w)
	fmt.Fprintln(w, "expected shape: recall rises with L; candidate fraction falls as K rises")

	// Learning-to-hash comparison point: spectral hashing learns its
	// partition from the data's PCA structure instead of random
	// projections (Section 2.2(2)).
	sh, err := spectral.Build(ds.Data, ds.Count, ds.Dim, spectral.Config{Bits: 14})
	if err != nil {
		fmt.Fprintf(w, "E2 spectral: %v\n", err)
		return
	}
	t2 := NewTable("E2b learned hashing (spectral, 14 bits) vs budget", "probe.budget", "recall@10", "QPS")
	for _, ef := range []int{64, 256, 1024} {
		rec, qps := recallQPS(sh, qs, truth, 10, index.Params{Ef: ef})
		t2.AddRow(ef, rec, qps)
	}
	t2.Print(w)
	fmt.Fprintln(w, "expected shape: learned partition reaches LSH-grade recall with one table (no L-fold replication)")
}

// E3 — IVF: nprobe sweeps recall against scanned fraction
// (Section 2.2(2)).
func init() { register("E3", "IVF nprobe trades recall vs scanned fraction", runE3) }

func runE3(w io.Writer, scale int) {
	n := scaled(10000, scale, 2000)
	ds := dataset.Clustered(n, 64, 32, 0.4, 1)
	qs := ds.Queries(30, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	iv, err := ivf.Build(ds.Data, ds.Count, ds.Dim, ivf.Config{NList: 64, Seed: 3})
	if err != nil {
		fmt.Fprintf(w, "E3 build error: %v\n", err)
		return
	}
	t := NewTable(fmt.Sprintf("E3 IVFFlat nprobe sweep (n=%d, d=64, nlist=64)", n),
		"nprobe", "recall@10", "scanned.frac", "QPS")
	for _, np := range []int{1, 2, 4, 8, 16, 32, 64} {
		rec, qps := recallQPS(iv, qs, truth, 10, index.Params{NProbe: np})
		var frac float64
		for _, q := range qs {
			frac += iv.ScannedFraction(q, np)
		}
		t.AddRow(np, rec, frac/float64(len(qs)), qps)
	}
	t.Print(w)
	fmt.Fprintln(w, "expected shape: recall -> 1 as nprobe -> nlist; scanned fraction grows linearly; QPS falls")
}

// E4 — quantization: compression vs reconstruction error vs recall;
// OPQ <= PQ error on correlated data; ADC beats SDC recall
// (Section 2.2(3)).
func init() {
	register("E4", "quantization compresses at bounded recall loss; OPQ<=PQ; ADC>SDC", runE4)
}

func runE4(w io.Writer, scale int) {
	n := scaled(4000, scale, 1000)
	ds := dataset.LowRank(n, 64, 8, 0.05, 1)
	qs := ds.Queries(25, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	t := NewTable(fmt.Sprintf("E4 quantizer comparison (low-rank, n=%d, d=64)", n),
		"method", "compression", "MSE", "recall@10")

	// SQ8.
	sq, err := quant.TrainSQ(ds.Data, ds.Count, ds.Dim)
	if err != nil {
		fmt.Fprintf(w, "E4: %v\n", err)
		return
	}
	sqCodes := make([]byte, ds.Count*ds.Dim)
	for i := 0; i < ds.Count; i++ {
		if _, err := sq.Encode(ds.Row(i), sqCodes[i*ds.Dim:(i+1)*ds.Dim]); err != nil {
			fmt.Fprintf(w, "E4: %v\n", err)
			return
		}
	}
	sqRecall := quantRecall(qs, truth, ds.Count, func(q []float32, i int) float32 {
		d, _ := sq.DistanceL2(q, sqCodes[i*ds.Dim:(i+1)*ds.Dim])
		return d
	})
	t.AddRow("SQ8", sq.CompressionRatio(), sq.MSE(ds.Data, ds.Count), sqRecall)

	// PQ / OPQ with ADC and SDC.
	pq, err := quant.TrainPQ(ds.Data, ds.Count, ds.Dim, quant.PQConfig{M: 8, Ks: 64, Seed: 3, MaxIter: 15})
	if err != nil {
		fmt.Fprintf(w, "E4: %v\n", err)
		return
	}
	pqCodes := make([]byte, ds.Count*pq.M)
	for i := 0; i < ds.Count; i++ {
		pq.Encode(ds.Row(i), pqCodes[i*pq.M:(i+1)*pq.M])
	}
	adcRecall := quantRecallTab(qs, truth, ds.Count, pq, pqCodes)
	t.AddRow("PQ8x64 (ADC)", pq.CompressionRatio(), pq.MSE(ds.Data, ds.Count), adcRecall)

	sdc := pq.SDC()
	sdcRecall := quantRecall(qs, truth, ds.Count, func(q []float32, i int) float32 {
		qcode := pq.Encode(q, nil)
		return sdc.Distance(qcode, pqCodes[i*pq.M:(i+1)*pq.M])
	})
	t.AddRow("PQ8x64 (SDC)", pq.CompressionRatio(), pq.MSE(ds.Data, ds.Count), sdcRecall)

	opq, err := quant.TrainOPQ(ds.Data, ds.Count, ds.Dim, quant.OPQConfig{
		PQConfig: quant.PQConfig{M: 8, Ks: 64, Seed: 3, MaxIter: 15}, Iters: 5,
	})
	if err != nil {
		fmt.Fprintf(w, "E4: %v\n", err)
		return
	}
	opqCodes := make([]byte, ds.Count*opq.PQ.M)
	for i := 0; i < ds.Count; i++ {
		opq.Encode(ds.Row(i), opqCodes[i*opq.PQ.M:(i+1)*opq.PQ.M])
	}
	opqRecall := quantRecall(qs, truth, ds.Count, func(q []float32, i int) float32 {
		return opq.ADC(q).Distance(opqCodes[i*opq.PQ.M : (i+1)*opq.PQ.M])
	})
	t.AddRow("OPQ8x64 (ADC)", opq.PQ.CompressionRatio(), opq.MSE(ds.Data, ds.Count), opqRecall)

	rq, err := quant.TrainRQ(ds.Data, ds.Count, ds.Dim, quant.RQConfig{Levels: 8, Ks: 64, Seed: 3, MaxIter: 15})
	if err != nil {
		fmt.Fprintf(w, "E4: %v\n", err)
		return
	}
	rqCodes := make([][]byte, ds.Count)
	for i := 0; i < ds.Count; i++ {
		rqCodes[i] = rq.Encode(ds.Row(i), nil)
	}
	rqRecall := quantRecall(qs, truth, ds.Count, func(q []float32, i int) float32 {
		return rq.DistanceL2(q, rqCodes[i])
	})
	t.AddRow("RQ8x64 (residual)", rq.CompressionRatio(), rq.MSE(ds.Data, ds.Count), rqRecall)
	t.Print(w)
	fmt.Fprintln(w, "expected shape: OPQ MSE <= PQ MSE; ADC recall >= SDC recall; RQ competitive at same code size; SQ8 highest recall at lowest compression")
}

func quantRecall(qs [][]float32, truth [][]topk.Result, n int, dist func(q []float32, i int) float32) float64 {
	got := make([][]topk.Result, len(qs))
	for qi, q := range qs {
		c := topk.NewCollector(10)
		for i := 0; i < n; i++ {
			c.Push(int64(i), dist(q, i))
		}
		got[qi] = c.Results()
	}
	return sharedRecall(got, truth)
}

func quantRecallTab(qs [][]float32, truth [][]topk.Result, n int, pq *quant.PQ, codes []byte) float64 {
	got := make([][]topk.Result, len(qs))
	for qi, q := range qs {
		tab := pq.ADC(q)
		c := topk.NewCollector(10)
		for i := 0; i < n; i++ {
			c.Push(int64(i), tab.Distance(codes[i*pq.M:(i+1)*pq.M]))
		}
		got[qi] = c.Results()
	}
	return sharedRecall(got, truth)
}

// E5 — trees: deterministic k-d degrades with dimension; randomized
// forests adapt to intrinsic dimensionality; more trees raise recall
// (Section 2.2, tree-based indexes).
func init() { register("E5", "randomized tree forests adapt where deterministic k-d degrades", runE5) }

func runE5(w io.Writer, scale int) {
	n := scaled(4000, scale, 1000)
	budget := 512
	t := NewTable(fmt.Sprintf("E5 tree indexes (low-rank data, n=%d, leaf budget=%d)", n, budget),
		"dim", "index", "trees", "recall@10", "QPS")
	for _, d := range []int{8, 32, 128} {
		ds := dataset.LowRank(n, d, 6, 0.05, int64(d))
		qs := ds.Queries(25, 0.05, 2)
		truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
		add := func(name string, idx index.Index, trees int) {
			rec, qps := recallQPS(idx, qs, truth, 10, index.Params{Ef: budget})
			t.AddRow(d, name, trees, rec, qps)
		}
		kd, _ := tree.Build(ds.Data, n, d, tree.Config{Rule: tree.Widest, Seed: 1})
		add("kdtree", kd, 1)
		pca, _ := tree.Build(ds.Data, n, d, tree.Config{Rule: tree.NodePCA, Seed: 1})
		add("pcatree", pca, 1)
		for _, trees := range []int{1, 8, 32} {
			rp, _ := tree.Build(ds.Data, n, d, tree.Config{Rule: tree.RP, Trees: trees, Seed: 1})
			add("rptree", rp, trees)
		}
		an, _ := tree.Build(ds.Data, n, d, tree.Config{Rule: tree.Annoy, Trees: 8, Seed: 1})
		add("annoy", an, 8)
	}
	t.Print(w)
	fmt.Fprintln(w, "expected shape: kdtree recall drops with dim; rptree recall grows with trees; annoy ~ rptree")
}

// E6 — graphs: build cost, degree, and the recall/QPS frontier of
// KNNG vs NSW vs HNSW vs NSG vs Vamana; HNSW heuristic vs naive
// ablation (Section 2.2, graph-based indexes).
func init() { register("E6", "graph indexes dominate; hierarchy and pruning help", runE6) }

func runE6(w io.Writer, scale int) {
	n := scaled(5000, scale, 1500)
	ds := dataset.Clustered(n, 32, 16, 0.4, 1)
	qs := ds.Queries(30, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	t := NewTable(fmt.Sprintf("E6 graph indexes (n=%d, d=32, k=10)", n),
		"index", "build", "avg.deg", "ef", "recall@10", "QPS")
	for _, e := range []struct {
		name  string
		build func() (*graph.Index, error)
	}{
		{"knng", func() (*graph.Index, error) {
			return knng.Build(ds.Data, n, ds.Dim, knng.Config{K: 16, MaxIter: 8, Seed: 1, NumEntry: 32})
		}},
		{"nsw", func() (*graph.Index, error) { return nsw.Build(ds.Data, n, ds.Dim, nsw.Config{M: 8}) }},
		{"hnsw", func() (*graph.Index, error) { return hnsw.Build(ds.Data, n, ds.Dim, hnsw.Config{M: 8, Seed: 1}) }},
		{"hnsw-naive", func() (*graph.Index, error) {
			return hnsw.Build(ds.Data, n, ds.Dim, hnsw.Config{M: 8, Seed: 1, NaiveSelection: true})
		}},
		{"nsg", func() (*graph.Index, error) {
			return nsg.Build(ds.Data, n, ds.Dim, nsg.Config{Variant: nsg.NSG, R: 12, Seed: 1})
		}},
		{"vamana", func() (*graph.Index, error) {
			return nsg.Build(ds.Data, n, ds.Dim, nsg.Config{Variant: nsg.Vamana, R: 12, Alpha: 1.2, Seed: 1})
		}},
		{"fanng", func() (*graph.Index, error) {
			return nsg.Build(ds.Data, n, ds.Dim, nsg.Config{Variant: nsg.FANNG, R: 12, Trials: 8, Seed: 1})
		}},
	} {
		start := time.Now()
		g, _ := e.build()
		build := time.Since(start)
		for _, ef := range []int{16, 64, 200} {
			rec, qps := recallQPS(g, qs, truth, 10, index.Params{Ef: ef})
			t.AddRow(e.name, build, graph.AvgDegree(g.Layers()[0]), ef, rec, qps)
		}
	}
	t.Print(w)
	fmt.Fprintln(w, "expected shape: hnsw/nsg/vamana reach high recall at low ef; nsw needs larger ef; knng trails; pruned degree < nsw degree")
}
