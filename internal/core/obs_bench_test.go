package core

import (
	"testing"
	"time"

	"vdbms/internal/dataset"
	"vdbms/internal/filter"
)

// BenchmarkSearchObs measures the observability tax on the search
// path: the same single-threaded query loop with the statistics
// tracker and recall loop fully on versus fully off. The loop
// replays samples on its own goroutine off the query path, and its
// CPU is bounded by the pass interval (production cadence is
// minutes; 1s here is already aggressive), so the per-query cost
// this benchmark isolates is shape/selectivity recording, the
// reservoir admission check, and the occasional sample copy. The two
// queries/s figures land in BENCH_obs.json; the acceptance bar is
// that "on" stays within 5% of "off".
func BenchmarkSearchObs(b *testing.B) {
	const (
		rows = 8192
		dim  = 32
	)
	build := func(b *testing.B) *Collection {
		c, err := NewCollection("bench", Schema{
			Dim:        dim,
			Attributes: map[string]filter.Kind{"g": filter.Int64},
		})
		if err != nil {
			b.Fatal(err)
		}
		ds := dataset.Clustered(rows, dim, 8, 0.3, 7)
		for i := 0; i < rows; i++ {
			if _, err := c.Insert(ds.Row(i), map[string]filter.Value{"g": filter.IntV(int64(i % 16))}); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.CreateIndex("hnsw", map[string]int{"m": 8}); err != nil {
			b.Fatal(err)
		}
		return c
	}
	run := func(b *testing.B, c *Collection) {
		ds := dataset.Clustered(rows, dim, 8, 0.3, 7)
		qs := ds.Queries(64, 0.1, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Search(bg, SearchRequest{Vector: qs[i%len(qs)], K: 10, Ef: 64}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	}

	b.Run("off", func(b *testing.B) {
		c := build(b)
		c.SetStatsEnabled(false)
		run(b, c)
	})
	b.Run("on", func(b *testing.B) {
		c := build(b)
		c.SetStatsEnabled(true)
		c.EnableRecall(RecallConfig{
			Interval:      time.Second,
			ReservoirSize: 64,
		})
		defer c.DisableRecall()
		run(b, c)
	})
}
