package core

import (
	"sync"
	"testing"
	"time"

	"vdbms/internal/dataset"
	"vdbms/internal/filter"
)

// BenchmarkMixedReadWrite measures search throughput while a writer
// goroutine mutates the collection: the workload the snapshot engine
// exists for. Readers run one search per iteration (b.RunParallel
// spreads them over GOMAXPROCS goroutines); one background writer
// cycles updates, inserts, and deletes fast enough to keep crossing
// the index staleness threshold, so the benchmark also pays for every
// triggered ANN rebuild. The reported queries/s is the acceptance
// metric: under the seed lock-per-operation engine each rebuild stalls
// every reader; under snapshot isolation readers never wait on a build.
func BenchmarkMixedReadWrite(b *testing.B) {
	const (
		rows = 8192
		dim  = 32
	)
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
	qs := ds.Queries(64, 0.1, 8)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 16 {
			case 0:
				c.Insert(ds.Row(i%rows), map[string]filter.Value{"g": filter.IntV(int64(i % 16))}) //nolint:errcheck
			case 1:
				c.Delete(int64(i % rows)) //nolint:errcheck
			default:
				c.UpdateVector(int64(i%rows), ds.Row((i*7)%rows)) //nolint:errcheck
			}
			i++
		}
	}()

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := c.Search(bg, SearchRequest{Vector: qs[i%len(qs)], K: 10, Ef: 64}); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkWriteWhileSearch measures hnsw search throughput on a
// collection served static and on the same collection written while it
// is searched: 10 000 × 64 clustered rows indexed at m = 16, searched
// at ef 64 by b.RunParallel goroutines. Under "writing" one goroutine
// inserts a row every millisecond beside them, so the index trails the
// inserts by up to RebuildFraction (0.2) of its rows, each search also
// scans that tail, and the staleness rule rebuilds the index in the
// background whenever the tail passes it. queries/s counts searches.
func BenchmarkWriteWhileSearch(b *testing.B) {
	const rows, dim = 10000, 64
	ds := dataset.Clustered(rows+20000, dim, 32, 1, 61)
	qs := ds.Queries(256, 0.1, 67)
	for _, name := range []string{"static", "writing"} {
		c, err := NewCollection("wws", Schema{Dim: dim})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := c.Insert(ds.Row(i), nil); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.CreateIndex("hnsw", map[string]int{"m": 16}); err != nil {
			b.Fatal(err)
		}
		next := rows
		b.Run(name, func(b *testing.B) {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			if name == "writing" {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for ; next < ds.Count; next++ {
						select {
						case <-stop:
							return
						case <-time.After(time.Millisecond):
						}
						if _, err := c.Insert(ds.Row(next), nil); err != nil {
							panic(err)
						}
					}
				}()
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for i := 0; pb.Next(); i++ {
					if _, err := c.Search(bg, SearchRequest{Vector: qs[i%len(qs)], K: 10, Ef: 64}); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
		c.WaitForIndex()
	}
}
