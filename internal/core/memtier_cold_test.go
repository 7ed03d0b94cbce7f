//go:build linux && (amd64 || arm64)

package core

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/memory"
	"vdbms/internal/wal"
)

// posixFadvDontNeed is POSIX_FADV_DONTNEED, the posix_fadvise advice
// that drops a file's clean pages from the page cache.
const posixFadvDontNeed = 4

// BenchmarkMemTierCold times rounds of queries on a durable 60 000 ×
// 128 hnsw collection evicted onto its checkpoint, each round started
// with none of the column in memory. Before every round the mapping's
// page-table entries are dropped (AdviseDontNeed) and then the
// checkpoint file's page cache (posix_fadvise POSIX_FADV_DONTNEED), so
// a round's first read of each page goes to the file system. Both act
// on this process's mapping and the benchmark's own file; no machine
// setting changes. A round is 20 queries: default-plan (an hnsw
// traversal, random reads) or forced brute-force scans (one full
// sequential pass, then warm).
func BenchmarkMemTierCold(b *testing.B) {
	const n, d, k, round = 60_000, 128, 10, 20
	dir := b.TempDir()
	ds := dataset.Clustered(n+round, d, 64, 1.0, 1)
	c, err := CreateDurable(dir, "cold", Schema{Dim: d}, DurabilityOptions{Fsync: wal.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.CreateIndex("hnsw", map[string]int{"m": 16}); err != nil {
		b.Fatal(err)
	}
	m := memory.New(0)
	m.Close()
	if err := c.AttachMemory(m, b.TempDir()); err != nil {
		b.Fatal(err)
	}
	if err := c.EvictToMmap(); err != nil {
		b.Fatal(err)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, ckptPrefix+"*"))
	if err != nil || len(ckpts) != 1 {
		b.Fatalf("checkpoints %v (%v), want one", ckpts, err)
	}
	f, err := os.Open(ckpts[0])
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	dropCold := func() {
		c.mu.Lock()
		mapped := c.mapped
		c.mu.Unlock()
		if mapped == nil {
			b.Fatal("column is not mapped")
		}
		if err := mapped.AdviseDontNeed(); err != nil {
			b.Fatal(err)
		}
		if _, _, e := syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(), 0, 0, posixFadvDontNeed, 0, 0); e != 0 {
			b.Fatal(e)
		}
	}
	for _, bc := range []struct{ name, policy string }{
		{"default", ""},
		{"brute_force", "plan:brute_force"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dropCold()
				b.StartTimer()
				for j := 0; j < round; j++ {
					if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(n + j), K: k, Policy: bc.policy}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
