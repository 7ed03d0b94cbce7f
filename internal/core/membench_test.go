package core

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/memory"
	"vdbms/internal/storage"
)

// BenchmarkMemTierSearch is the acceptance benchmark for the memory
// tiers: the same brute-force search workload against a heap-resident
// column and against the mmap tier, reporting queries/s plus the Go
// heap and process RSS in MiB. The mmap rows should show the column's
// bytes gone from the heap at a modest qps cost (the kernel serves
// faults from the page cache). 100k×128-d always runs; the 1M×128-d
// point (512 MiB of vectors) is gated behind VDBMS_BENCH_LARGE=1 so CI
// smoke runs stay cheap.
func BenchmarkMemTierSearch(b *testing.B) {
	sizes := []int{100_000}
	if os.Getenv("VDBMS_BENCH_LARGE") != "" {
		sizes = append(sizes, 1_000_000)
	}
	const d, k = 128, 10
	for _, n := range sizes {
		ds := dataset.Clustered(n+16, d, 16, 0.3, 1)
		for _, tier := range []string{"heap", "mmap"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, tier), func(b *testing.B) {
				if tier == "mmap" && !storage.MmapSupported() {
					b.Skip("no mmap on this platform")
				}
				c, err := NewCollection("bench", Schema{Dim: d})
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if _, err := c.Insert(ds.Row(i), nil); err != nil {
						b.Fatal(err)
					}
				}
				if tier == "mmap" {
					m := memory.New(0)
					m.Close()
					if err := c.AttachMemory(m, b.TempDir()); err != nil {
						b.Fatal(err)
					}
					if err := c.EvictToMmap(); err != nil {
						b.Fatal(err)
					}
				}
				runtime.GC()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(n + i%16), K: k}); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				qps := float64(b.N) / b.Elapsed().Seconds()
				b.ReportMetric(qps, "queries/s")
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap_MiB")
				if rss := memory.ReadRSS(); rss > 0 {
					b.ReportMetric(float64(rss)/(1<<20), "rss_MiB")
				}
				if err := c.Close(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
