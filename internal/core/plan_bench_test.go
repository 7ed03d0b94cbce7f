package core

import (
	"sync"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/topk"
	"vdbms/internal/tuner"
	"vdbms/internal/vec"
)

// BenchmarkPlanTuned is the acceptance benchmark for adaptive query
// optimization: tuned versus static serving at matched recall on a
// 100k x 128-d set behind a coarse IVF index. The "static_worst"
// variant pins the nprobe ladder maximum — what a caller who needs a
// recall guarantee but has no frontier must run everywhere. The
// "tuned" variant carries only a 0.95 recall@10 target and lets the
// warmed tuner resolve the cheapest nprobe its replays prove meets
// it. Both variants report queries/s and the recall@10 they actually
// serve (measured against brute-force ground truth outside the timed
// loop, so a -benchtime 1x run measures the same recall); the
// acceptance bar is tuned >= static_worst queries/s with recall@10
// still >= 0.95, and the tuned variant fails below that recall.
func BenchmarkPlanTuned(b *testing.B) {
	const (
		rows   = 100_000
		dim    = 128
		k      = 10
		nq     = 64
		target = 0.95
	)
	planBenchOnce.Do(func() {
		ds := dataset.Clustered(rows, dim, 64, 0.35, 11)
		c, err := NewCollection("planbench", Schema{Dim: dim})
		if err != nil {
			panic(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := c.Insert(ds.Row(i), nil); err != nil {
				panic(err)
			}
		}
		if err := c.CreateIndex("ivfflat", map[string]int{"nlist": 128}); err != nil {
			panic(err)
		}
		queries := ds.Queries(nq, 0.1, 13)
		c.EnableRecall(RecallConfig{TargetRecall: target, ReservoirSize: nq, PassSamples: nq})
		for _, q := range queries {
			if _, err := c.Search(bg, SearchRequest{Vector: q, K: k}); err != nil {
				panic(err)
			}
		}
		rep, err := c.RecallNow()
		if err != nil {
			panic(err)
		}
		planBenchCol, planBenchQueries, planBenchReport = c, queries, rep
		planBenchTruth = dataset.GroundTruth(vec.Distance(vec.L2), ds, queries, k)
	})
	c, queries, truth := planBenchCol, planBenchQueries, planBenchTruth
	if !planBenchReport.Trusted {
		b.Fatalf("tuner did not converge: %+v", planBenchReport)
	}

	meanRecall := func(req SearchRequest) float64 {
		var sum float64
		for i, q := range queries {
			req.Vector, req.K = q, k
			res, err := c.Search(bg, req)
			if err != nil {
				b.Fatal(err)
			}
			inTruth := map[int64]bool{}
			for _, r := range truth[i] {
				inTruth[r.ID] = true
			}
			hits := 0
			for _, r := range res.Hits {
				if inTruth[r.ID] {
					hits++
				}
			}
			sum += float64(hits) / float64(k)
		}
		return sum / float64(len(queries))
	}
	run := func(b *testing.B, req SearchRequest, minRecall float64) {
		recall := meanRecall(req)
		if recall < minRecall {
			b.Fatalf("recall@10 = %.3f, want >= %.2f", recall, minRecall)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req.Vector, req.K = queries[i%len(queries)], k
			if _, err := c.Search(bg, req); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		b.ReportMetric(recall, "recall@10")
	}

	maxNProbe := tuner.NProbeLadder[len(tuner.NProbeLadder)-1]
	b.Run("static_worst", func(b *testing.B) {
		run(b, SearchRequest{NProbe: maxNProbe}, 0)
	})
	b.Run("tuned", func(b *testing.B) {
		run(b, SearchRequest{}, target) // collection target resolves via the frontier
	})
}

var (
	planBenchOnce    sync.Once
	planBenchCol     *Collection
	planBenchQueries [][]float32
	planBenchTruth   [][]topk.Result
	planBenchReport  RecallReport
)
