package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vdbms/internal/dataset"
	"vdbms/internal/executor"
	"vdbms/internal/filter"
	"vdbms/internal/index"
	"vdbms/internal/memory"
	"vdbms/internal/obs"
	"vdbms/internal/storage"
	"vdbms/internal/vec"
	"vdbms/internal/wal"
)

// attachTestManager puts c under a fresh (unbudgeted) manager so tier
// moves can be driven directly. The manager's actor is stopped — tests
// drive everything synchronously.
func attachTestManager(t *testing.T, c *Collection) *memory.Manager {
	t.Helper()
	m := memory.New(0)
	m.Close()
	if err := c.AttachMemory(m, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	return m
}

func sameResults(t *testing.T, want, got []Result, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].Dist != got[i].Dist {
			t.Fatalf("%s: result %d = (%d, %v), want (%d, %v)",
				label, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

// TestEvictByteEquivalence is the tier-correctness property test: for
// every metric × quantization combination, search / range / batch
// answers from the mmap tier are byte-identical to the heap tier — the
// mapping holds exactly the bytes the heap column held, and scorers
// bind to it through the same zero-copy surface.
func TestEvictByteEquivalence(t *testing.T) {
	if !storage.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	const n, d, k = 240, 16, 7
	metrics := []vec.Metric{vec.L2, vec.InnerProduct, vec.Cosine}
	quants := []string{"", "sq8", "pq"}
	for _, metric := range metrics {
		for _, quant := range quants {
			if quant == "pq" && metric != vec.L2 {
				continue // pq's ADC tables decompose squared L2 only
			}
			t.Run(fmt.Sprintf("metric=%v/quant=%q", metric, quant), func(t *testing.T) {
				schema := Schema{
					Dim:          d,
					Metric:       metric,
					Attributes:   map[string]filter.Kind{"g": filter.Int64},
					Quantization: quant,
					RerankK:      32,
				}
				c, err := NewCollection("tier", schema)
				if err != nil {
					t.Fatal(err)
				}
				ds := dataset.Clustered(n+8, d, 5, 0.3, 42)
				for i := 0; i < n; i++ {
					if _, err := c.Insert(ds.Row(i), map[string]filter.Value{"g": filter.IntV(int64(i % 4))}); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.CreateIndex("hnsw", map[string]int{"m": 8}); err != nil {
					t.Fatal(err)
				}
				c.WaitForIndex()
				attachTestManager(t, c)

				filters := []Filter{{Column: "g", Op: "<", Value: 3}}
				queries := [][]float32{ds.Row(n), ds.Row(n + 1), ds.Row(n + 2)}
				type answers struct {
					plain, filtered []Result
					rng             []Result
					batch           [][]Result
				}
				collect := func() answers {
					var a answers
					plain, err := c.Search(bg, SearchRequest{Vector: queries[0], K: k, Ef: 64})
					if err != nil {
						t.Fatal(err)
					}
					filtered, err := c.Search(bg, SearchRequest{Vector: queries[1], K: k, Ef: 64, Filters: filters})
					if err != nil {
						t.Fatal(err)
					}
					a.plain, a.filtered = plain.Hits, filtered.Hits
					rng, err := c.Search(bg, SearchRequest{Vector: queries[2], K: c.Rows(), Radius: 8.5})
					if err != nil {
						t.Fatal(err)
					}
					a.rng = rng.Hits
					if a.batch, err = c.SearchBatch(bg, queries, SearchRequest{K: k, Ef: 64}); err != nil {
						t.Fatal(err)
					}
					return a
				}

				heap := collect()
				if tier := c.Tier(); tier != "heap" {
					t.Fatalf("pre-evict tier %q", tier)
				}
				if err := c.EvictToMmap(); err != nil {
					t.Fatal(err)
				}
				if tier := c.Tier(); tier != "mmap" {
					t.Fatalf("post-evict tier %q", tier)
				}
				mapped := collect()
				sameResults(t, heap.plain, mapped.plain, "plain")
				sameResults(t, heap.filtered, mapped.filtered, "filtered")
				sameResults(t, heap.rng, mapped.rng, "range")
				for i := range heap.batch {
					sameResults(t, heap.batch[i], mapped.batch[i], fmt.Sprintf("batch[%d]", i))
				}

				if err := c.PromoteToHeap(); err != nil {
					t.Fatal(err)
				}
				if tier := c.Tier(); tier != "heap" {
					t.Fatalf("post-promote tier %q", tier)
				}
				promoted := collect()
				sameResults(t, heap.plain, promoted.plain, "promoted plain")
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	// An IVF index rebinds its scorer as a graph does: a collection with
	// ivfflat installed evicts, and the plans served by the index answer
	// from the mapping exactly as they did from the heap. A durable
	// collection evicts onto its checkpoint and answers the same way.
	ivfSchema := Schema{Dim: d, Attributes: map[string]filter.Kind{"g": filter.Int64}}
	evictIVF := func(t *testing.T, c *Collection) {
		ds := dataset.Clustered(n+8, d, 5, 0.3, 42)
		for i := 0; i < n; i++ {
			if _, err := c.Insert(ds.Row(i), map[string]filter.Value{"g": filter.IntV(int64(i % 4))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.CreateIndex("ivfflat", map[string]int{"nlist": 8}); err != nil {
			t.Fatal(err)
		}
		c.WaitForIndex()
		attachTestManager(t, c)
		reqs := []SearchRequest{
			{Vector: ds.Row(n), K: k, NProbe: 3, Policy: "plan:single_stage"},
			{Vector: ds.Row(n + 1), K: k, NProbe: 3, Policy: "plan:single_stage", Filters: []Filter{{Column: "g", Op: "<", Value: 3}}},
			{Vector: ds.Row(n + 2), K: k, NProbe: 3, Policy: "plan:post_filter", Filters: []Filter{{Column: "g", Op: "<", Value: 3}}},
		}
		search := func() (hits [][]Result) {
			for _, req := range reqs {
				res, err := c.Search(bg, req)
				if err != nil {
					t.Fatal(err)
				}
				if res.Plan == "brute_force" {
					t.Fatalf("plan %q: the index served nothing", res.Plan)
				}
				hits = append(hits, res.Hits)
			}
			return hits
		}
		heap := search()
		if err := c.EvictToMmap(); err != nil {
			t.Fatal(err)
		}
		if tier := c.Tier(); tier != "mmap" {
			t.Fatalf("post-evict tier %q", tier)
		}
		for i, hits := range search() {
			sameResults(t, heap[i], hits, fmt.Sprintf("ivfflat request %d", i))
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("index=ivfflat", func(t *testing.T) {
		c, err := NewCollection("tier", ivfSchema)
		if err != nil {
			t.Fatal(err)
		}
		evictIVF(t, c)
	})
	t.Run("durable/index=ivfflat", func(t *testing.T) {
		c, err := CreateDurable(t.TempDir(), "tier", ivfSchema, DurabilityOptions{Fsync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		evictIVF(t, c)
	})
}

// TestEvictAccounting checks the budget account's view of tier moves:
// vector bytes drop to zero on eviction (the column is kernel-paged,
// not heap), come back on promotion, and the evicted bit follows the
// owner's tier.
func TestEvictAccounting(t *testing.T) {
	if !storage.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	c, err := NewCollection("acct", Schema{Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := c.Insert(make([]float32, 8), nil); err != nil {
			t.Fatal(err)
		}
	}
	m := attachTestManager(t, c)
	a := m.Accounts()[0]
	if got := a.Get(memory.CatVectors); got < 100*8*4 {
		t.Fatalf("heap-tier vector bytes %d, want >= %d", got, 100*8*4)
	}
	if err := c.EvictToMmap(); err != nil {
		t.Fatal(err)
	}
	if got := a.Get(memory.CatVectors); got != 0 {
		t.Fatalf("mmap-tier vector bytes %d, want 0", got)
	}
	if !a.Evicted() {
		t.Fatal("account not marked evicted")
	}
	if err := c.PromoteToHeap(); err != nil {
		t.Fatal(err)
	}
	if got := a.Get(memory.CatVectors); got < 100*8*4 {
		t.Fatalf("promoted vector bytes %d, want >= %d", got, 100*8*4)
	}
	if a.Evicted() {
		t.Fatal("account still marked evicted after promote")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWritePathPromotion: mutating an evicted collection promotes it
// transparently — an insert reallocates to heap, an update lands on a
// COW heap copy — and the results reflect the write.
func TestWritePathPromotion(t *testing.T) {
	if !storage.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	const d = 8
	ds := dataset.Clustered(64, d, 3, 0.4, 7)
	t.Run("insert", func(t *testing.T) {
		c, _ := NewCollection("ins", Schema{Dim: d})
		for i := 0; i < 32; i++ {
			c.Insert(ds.Row(i), nil) //nolint:errcheck
		}
		attachTestManager(t, c)
		if err := c.EvictToMmap(); err != nil {
			t.Fatal(err)
		}
		id, err := c.Insert(ds.Row(32), nil)
		if err != nil {
			t.Fatal(err)
		}
		if tier := c.Tier(); tier != "heap" {
			t.Fatalf("tier after insert %q, want heap (write-path promotion)", tier)
		}
		v, _, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		sameVec(t, ds.Row(32), v)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("update", func(t *testing.T) {
		c, _ := NewCollection("upd", Schema{Dim: d})
		for i := 0; i < 32; i++ {
			c.Insert(ds.Row(i), nil) //nolint:errcheck
		}
		attachTestManager(t, c)
		if err := c.EvictToMmap(); err != nil {
			t.Fatal(err)
		}
		if err := c.UpdateVector(3, ds.Row(40)); err != nil {
			t.Fatal(err)
		}
		if tier := c.Tier(); tier != "heap" {
			t.Fatalf("tier after update %q, want heap (write-path promotion)", tier)
		}
		v, _, err := c.Get(3)
		if err != nil {
			t.Fatal(err)
		}
		sameVec(t, ds.Row(40), v)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("delete-stays-mapped", func(t *testing.T) {
		// Deletes only touch the tombstone bitset — no reason to leave
		// the mmap tier.
		c, _ := NewCollection("del", Schema{Dim: d})
		for i := 0; i < 32; i++ {
			c.Insert(ds.Row(i), nil) //nolint:errcheck
		}
		attachTestManager(t, c)
		if err := c.EvictToMmap(); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(5); err != nil {
			t.Fatal(err)
		}
		if tier := c.Tier(); tier != "mmap" {
			t.Fatalf("tier after delete %q, want mmap", tier)
		}
		res, err := c.Search(bg, SearchRequest{Vector: ds.Row(5), K: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Hits {
			if r.ID == 5 {
				t.Fatal("deleted row served from mmap tier")
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func sameVec(t *testing.T, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// pinnedIndex serves an index without implementing index.Remappable:
// it keeps scoring the column it was built over.
type pinnedIndex struct{ index.Index }

// TestEvictRefusals covers the cases where eviction must decline and
// leave the heap tier intact.
func TestEvictRefusals(t *testing.T) {
	if !storage.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	t.Run("unmanaged", func(t *testing.T) {
		c, _ := NewCollection("x", Schema{Dim: 4})
		c.Insert(make([]float32, 4), nil) //nolint:errcheck
		if err := c.EvictToMmap(); err == nil {
			t.Fatal("evicting an unmanaged collection succeeded")
		}
	})
	t.Run("empty", func(t *testing.T) {
		c, _ := NewCollection("x", Schema{Dim: 4})
		attachTestManager(t, c)
		if err := c.EvictToMmap(); err == nil {
			t.Fatal("evicting an empty collection succeeded")
		}
	})
	t.Run("non-remappable-index", func(t *testing.T) {
		ds := dataset.Clustered(64, 8, 3, 0.4, 3)
		c, _ := NewCollection("x", Schema{Dim: 8})
		for i := 0; i < 64; i++ {
			c.Insert(ds.Row(i), nil) //nolint:errcheck
		}
		// Every registered family can rebind, so the index here is a
		// flat scan behind a type that hides its Remap.
		flat, err := index.NewFlat(ds.Data, 64, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		c.ann = pinnedIndex{flat}
		c.mu.Unlock()
		attachTestManager(t, c)
		if err := c.EvictToMmap(); err == nil {
			t.Fatal("evicting under a non-remappable index succeeded")
		}
		if tier := c.Tier(); tier != "heap" {
			t.Fatalf("tier %q after refused eviction", tier)
		}
	})
	t.Run("double-evict-is-noop", func(t *testing.T) {
		ds := dataset.Clustered(32, 8, 2, 0.4, 3)
		c, _ := NewCollection("x", Schema{Dim: 8})
		for i := 0; i < 32; i++ {
			c.Insert(ds.Row(i), nil) //nolint:errcheck
		}
		attachTestManager(t, c)
		if err := c.EvictToMmap(); err != nil {
			t.Fatal(err)
		}
		if err := c.EvictToMmap(); err != nil {
			t.Fatalf("second eviction: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecoverMapsCheckpoint: a checkpoint file doubles as the mmap
// source — recovery starts the collection in the mmap tier, serving
// byte-identical results, and the first write promotes it.
func TestRecoverMapsCheckpoint(t *testing.T) {
	if !storage.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	dir := t.TempDir()
	const n, d, k = 120, 12, 5
	ds := dataset.Clustered(n+2, d, 4, 0.3, 11)
	opts := DurabilityOptions{CheckpointInterval: 0}
	c, err := CreateDurable(dir, "ckpt", Schema{Dim: d}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	want, err := c.Search(bg, SearchRequest{Vector: ds.Row(n), K: k})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // writes the final checkpoint
		t.Fatal(err)
	}

	r, err := Recover(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tier := r.Tier(); tier != "mmap" {
		t.Fatalf("recovered tier %q, want mmap (checkpoint-backed column)", tier)
	}
	got, err := r.Search(bg, SearchRequest{Vector: ds.Row(n), K: k})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, want.Hits, got.Hits, "recovered")

	// Recovered-mapped collections report their tier to the manager.
	m := memory.New(0)
	m.Close()
	if err := r.AttachMemory(m, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if !m.Accounts()[0].Evicted() {
		t.Fatal("recovered mmap-tier collection not marked evicted")
	}

	// First write promotes; results reflect it.
	if _, err := r.Insert(ds.Row(n+1), nil); err != nil {
		t.Fatal(err)
	}
	if tier := r.Tier(); tier != "heap" {
		t.Fatalf("tier after post-recovery insert %q, want heap", tier)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverMappedThenReplay: WAL records past the checkpoint replay
// onto a collection whose column starts mmap-backed; the update path
// promotes to heap via COW and converges to the logged state.
func TestRecoverMappedThenReplay(t *testing.T) {
	if !storage.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	dir := t.TempDir()
	const n, d = 60, 8
	ds := dataset.Clustered(n+4, d, 3, 0.4, 13)
	opts := DurabilityOptions{CheckpointInterval: 0}
	c, err := CreateDurable(dir, "replay", Schema{Dim: d}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Mutations past the checkpoint live only in the WAL.
	if err := c.UpdateVector(7, ds.Row(n)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(ds.Row(n+1), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(3); err != nil {
		t.Fatal(err)
	}
	// Close would write a fresh checkpoint covering everything; kill the
	// WAL binding instead so recovery must replay onto the mapped column.
	c.wal.log.Close() //nolint:errcheck

	r, err := Recover(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close() //nolint:errcheck
	if tier := r.Tier(); tier != "heap" {
		t.Fatalf("tier %q after replaying an update, want heap (COW promotion)", tier)
	}
	v, _, err := r.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, ds.Row(n), v)
	if _, _, err := r.Get(3); err == nil {
		t.Fatal("deleted row resurrected")
	}
	if got := r.Len(); got != n {
		t.Fatalf("len %d, want %d", got, n)
	}
}

// TestEvictConcurrentWithQueriesAndWrites races tier moves against the
// full query/write surface under -race.
func TestEvictConcurrentWithQueriesAndWrites(t *testing.T) {
	if !storage.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	c, _ := NewCollection("race", Schema{Dim: 8})
	evictRace(t, c, 0)
}

// TestEvictConcurrentDurable is the same race on a durable collection,
// whose evictions checkpoint and map the checkpoint while the writes
// they race are logged. An eviction takes a checkpoint with two fsyncs,
// which a steady stream of writes would always outrun, so both sides
// pause: some evictions land and some race a write.
func TestEvictConcurrentDurable(t *testing.T) {
	if !storage.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	c, err := CreateDurable(t.TempDir(), "race", Schema{Dim: 8}, DurabilityOptions{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	evictRace(t, c, 2*time.Millisecond)
}

// evictRace evicts and promotes c 40 times while one goroutine
// searches and another updates and inserts. The evictions start after
// the first write; the evictor pauses for quiet after every round and
// the writer after every eighth write.
func evictRace(t *testing.T, c *Collection, quiet time.Duration) {
	const d = 8
	ds := dataset.Clustered(256, d, 4, 0.4, 5)
	for i := 0; i < 128; i++ {
		c.Insert(ds.Row(i), nil) //nolint:errcheck
	}
	attachTestManager(t, c)
	started, done := make(chan struct{}), make(chan struct{})
	evicted, writes := 0, 0
	go func() {
		defer close(done)
		<-started
		for i := 0; i < 40; i++ {
			if c.EvictToMmap() == nil {
				evicted++
			}
			c.PromoteToHeap() //nolint:errcheck
			time.Sleep(quiet)
		}
	}()
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for ; ; writes++ {
			if writes == 1 {
				close(started)
			}
			select {
			case <-done:
				return
			default:
			}
			if writes%2 == 0 {
				c.UpdateVector(int64(writes%64), ds.Row((writes+1)%256)) //nolint:errcheck
			} else {
				c.Insert(ds.Row(writes%256), nil) //nolint:errcheck
			}
			if writes%8 == 7 {
				time.Sleep(quiet)
			}
		}
	}()
	for i := 0; ; i++ {
		select {
		case <-done:
		default:
			c.Search(bg, SearchRequest{Vector: ds.Row(i % 256), K: 3}) //nolint:errcheck
			continue
		}
		break
	}
	writer.Wait()
	t.Logf("%d of 40 evictions landed among %d writes", evicted, writes)
	res, err := c.Search(bg, SearchRequest{Vector: ds.Row(0), K: 5})
	if err != nil || len(res.Hits) == 0 {
		t.Fatalf("post-race search: %v (%d results)", err, len(res.Hits))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableEvictMapsCheckpoint: a durable collection evicts onto its
// checkpoint and never writes under the spill directory, which is gone
// here. Right after a checkpoint the eviction writes nothing at all;
// after more writes it takes one checkpoint, which then holds the only
// copy of the column on disk. Answers survive Close and Recover.
func TestDurableEvictMapsCheckpoint(t *testing.T) {
	if !storage.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	const n, d, k = 200, 16, 5
	dir := t.TempDir()
	opts := DurabilityOptions{Fsync: wal.SyncNever}
	ds := dataset.Clustered(n+50, d, 4, 0.3, 21)
	c, err := CreateDurable(dir, "dur", Schema{Dim: d}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	spill := filepath.Join(t.TempDir(), "spill")
	m := memory.New(0)
	m.Close()
	if err := c.AttachMemory(m, spill); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(spill); err != nil {
		t.Fatal(err)
	}
	listDir := func() []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, fmt.Sprintf("%s %d %v", e.Name(), info.Size(), info.ModTime()))
		}
		return names
	}
	queries := []SearchRequest{
		{Vector: ds.Row(n + 49), K: k},
		{Vector: ds.Row(3), K: k, Policy: "plan:brute_force"},
	}
	answers := func(c *Collection) (hits [][]Result) {
		for _, req := range queries {
			res, err := c.Search(bg, req)
			if err != nil {
				t.Fatal(err)
			}
			hits = append(hits, res.Hits)
		}
		return hits
	}

	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	files := listDir()
	_, _, ckpt := c.DurabilityStatus()
	heap := answers(c)
	if err := c.EvictToMmap(); err != nil {
		t.Fatal(err)
	}
	if tier := c.Tier(); tier != "mmap" {
		t.Fatalf("tier %q after evicting, want mmap", tier)
	}
	if got := listDir(); !slices.Equal(got, files) {
		t.Fatalf("evicting right after a checkpoint changed the directory:\n%v\nwant\n%v", got, files)
	}
	if _, _, got := c.DurabilityStatus(); got != ckpt {
		t.Fatalf("checkpoint LSN %d after evicting, want %d", got, ckpt)
	}
	for i, hits := range answers(c) {
		sameResults(t, heap[i], hits, fmt.Sprintf("mapped query %d", i))
	}

	// Inserts promote; the next eviction checkpoints and maps the new
	// checkpoint, which supersedes the old one.
	for i := n; i < n+40; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if tier := c.Tier(); tier != "heap" {
		t.Fatalf("tier %q after inserts, want heap", tier)
	}
	heap = answers(c)
	if err := c.EvictToMmap(); err != nil {
		t.Fatal(err)
	}
	if tier := c.Tier(); tier != "mmap" {
		t.Fatalf("tier %q after the second eviction, want mmap", tier)
	}
	_, last, ckpt := c.DurabilityStatus()
	var ckpts []uint64
	for _, name := range listDir() {
		if lsn, ok := parseCheckpointName(strings.Fields(name)[0]); ok {
			ckpts = append(ckpts, lsn)
		}
	}
	if len(ckpts) != 1 || ckpts[0] != last || ckpt != last {
		t.Fatalf("checkpoints %v (status says %d), want exactly one at LSN %d", ckpts, ckpt, last)
	}
	if _, err := os.Stat(spill); !os.IsNotExist(err) {
		t.Fatalf("spill directory: %v, want it still gone", err)
	}
	mapped := answers(c)
	for i := range heap {
		sameResults(t, heap[i], mapped[i], fmt.Sprintf("remapped query %d", i))
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, hits := range answers(r) {
		sameResults(t, mapped[i], hits, fmt.Sprintf("recovered query %d", i))
	}
}

// TestSnapshotWritesCopyNoColumn: Checkpoint and Save stream the float
// column from the epoch they write, heap or mapping, so neither
// allocates anything near a copy of it.
func TestSnapshotWritesCopyNoColumn(t *testing.T) {
	const n, d = 20000, 128
	const column = n * d * 4
	c, err := CreateDurable(t.TempDir(), "alloc", Schema{Dim: d}, DurabilityOptions{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := dataset.Clustered(n, d, 8, 0.3, 1)
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	save := filepath.Join(t.TempDir(), "alloc.snap")
	allocates := func(label string, write func() error) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := write(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		t.Logf("%s allocated %d bytes", label, after.TotalAlloc-before.TotalAlloc)
		if got := after.TotalAlloc - before.TotalAlloc; got >= column/4 {
			t.Fatalf("%s allocated %d bytes for a %d-byte column, want < %d", label, got, column, column/4)
		}
	}
	allocates("heap Checkpoint", c.Checkpoint)
	allocates("heap Save", func() error { return c.Save(save) })
	if !storage.MmapSupported() {
		return
	}
	attachTestManager(t, c)
	if err := c.EvictToMmap(); err != nil {
		t.Fatal(err)
	}
	// A delete leaves the column mapped and gives the next checkpoint
	// something to write.
	if err := c.Delete(7); err != nil {
		t.Fatal(err)
	}
	if tier := c.Tier(); tier != "mmap" {
		t.Fatalf("tier %q, want mmap", tier)
	}
	allocates("mmap Checkpoint", c.Checkpoint)
	allocates("mmap Save", func() error { return c.Save(save) })
}

// Gate for the column-reporting test index: a build parks until the
// test closes colGate, after signalling colStarted.
var (
	colGate    chan struct{}
	colStarted chan struct{}
	colOnce    sync.Once
)

// colIndex is a flat index that remembers the column it scores, so a
// test can tell which column an installed index reads.
type colIndex struct {
	*index.Flat
	data []float32
}

func (ci colIndex) Remap(data []float32) (index.Index, bool) {
	f, ok := ci.Flat.Remap(data)
	if !ok {
		return nil, false
	}
	return colIndex{f.(*index.Flat), data}, true
}

func registerColumnIndex() {
	colOnce.Do(func() {
		index.Register(index.Family{Name: "testcolumn", Metrics: index.AnyMetric, Build: func(data []float32, n, d int, metric vec.Metric, opts map[string]int) (index.Index, error) {
			colStarted <- struct{}{}
			<-colGate
			f, err := index.NewFlat(data, n, d, nil)
			if err != nil {
				return nil, err
			}
			return colIndex{f, data}, nil
		}})
	})
}

// TestCreateIndexDuringEviction: a CreateIndex build runs on the
// collection's builder, so an eviction that lands during it is refused
// with the retry error and the column stays on heap; once CreateIndex
// returns, eviction maps the column and the installed index is rebound
// onto the mapping.
func TestCreateIndexDuringEviction(t *testing.T) {
	if !storage.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	registerColumnIndex()
	c, ds := newCol(t, 200)
	defer c.Close()
	attachTestManager(t, c)
	colGate, colStarted = make(chan struct{}), make(chan struct{}, 1)
	release := sync.OnceFunc(func() { close(colGate) })
	defer release() // a failed test still lets the build return
	created := make(chan error, 1)
	go func() { created <- c.CreateIndex("testcolumn", nil) }()
	<-colStarted
	if err := c.EvictToMmap(); err == nil || !strings.Contains(err.Error(), "retry") {
		t.Fatalf("eviction during the build: %v, want the retry error", err)
	}
	if tier := c.Tier(); tier != "heap" {
		t.Fatalf("tier %q during the build, want heap", tier)
	}
	release()
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	if err := c.EvictToMmap(); err != nil {
		t.Fatal(err)
	}
	if tier := c.Tier(); tier != "mmap" {
		t.Fatalf("tier %q, want mmap", tier)
	}
	c.mu.Lock()
	ci, ok := c.ann.(colIndex)
	rebound := ok && &ci.data[0] == &c.data[0] && &c.data[0] == &c.mapped.Raw()[0]
	c.mu.Unlock()
	if !rebound {
		t.Fatal("the installed index does not score the mapped column")
	}
	res, err := c.Search(bg, SearchRequest{Vector: ds.Row(9), K: 1})
	if err != nil || res.Hits[0].ID != 9 || res.Hits[0].Dist != 0 {
		t.Fatalf("search after eviction: %+v %v", res, err)
	}
}

// mapsHeld reports how many column mappings the collection holds.
func mapsHeld(c *Collection) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.maps)
}

// TestRetiredMappingsReleased: the mapping a promotion retires is
// unmapped by the first write that finds no build running and no reader
// pinned, so a collection cycling between the tiers — in memory, or
// durable and evicting onto a fresh checkpoint each time — holds at
// most its current mapping, not one per eviction until Close.
func TestRetiredMappingsReleased(t *testing.T) {
	if !storage.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	cycle := func(t *testing.T, c *Collection, insert func(i int) error) {
		t.Helper()
		attachTestManager(t, c)
		for i := 0; i < 20; i++ {
			if err := c.EvictToMmap(); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
			if err := insert(i); err != nil {
				t.Fatal(err)
			}
			if held := mapsHeld(c); held > 1 {
				t.Fatalf("cycle %d: %d mappings held, want at most 1", i, held)
			}
		}
	}
	t.Run("memory", func(t *testing.T) {
		c, ds := newCol(t, 200)
		defer c.Close()
		cycle(t, c, func(i int) error {
			_, err := c.Insert(ds.Row(i), map[string]filter.Value{"g": filter.IntV(1)})
			return err
		})
	})
	t.Run("durable", func(t *testing.T) {
		c, ds := newDurable(t, t.TempDir(), 200, DurabilityOptions{Fsync: wal.SyncNever})
		defer c.Close()
		cycle(t, c, func(i int) error {
			_, err := c.Insert(ds.Row(i), durableRowAttrs(i))
			return err
		})
	})
}

// TestPinnedReaderKeepsRetiredMapping: a reader pinned across a
// promotion keeps scoring the mapped epoch it loaded — the row an
// update replaced still answers from the mapping — and the mapping is
// released by the first write after the reader unpins.
func TestPinnedReaderKeepsRetiredMapping(t *testing.T) {
	if !storage.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	c, ds := newCol(t, 200)
	defer c.Close()
	attachTestManager(t, c)
	if err := c.EvictToMmap(); err != nil {
		t.Fatal(err)
	}
	c.beginRead()
	s := c.snap.Load()
	exact := func() []Result {
		hits, _, err := s.env.Search(ds.Row(9), 3, nil, executor.Options{Deleted: s.deleted()}, "")
		if err != nil {
			t.Fatal(err)
		}
		return hits
	}
	before := exact()
	if err := c.UpdateVector(9, ds.Row(10)); err != nil { // promotes: the column is copied
		t.Fatal(err)
	}
	if tier := c.Tier(); tier != "heap" || mapsHeld(c) != 1 {
		t.Fatalf("after the promotion: tier %q with %d mappings, want heap keeping the pinned one", tier, mapsHeld(c))
	}
	after := exact()
	sameResults(t, before, after, "pinned epoch across a promotion")
	if after[0].ID != 9 || after[0].Dist != 0 {
		t.Fatalf("pinned epoch lost row 9's old vector: %+v", after)
	}
	c.endRead()
	if _, err := c.Insert(ds.Row(0), map[string]filter.Value{"g": filter.IntV(1)}); err != nil {
		t.Fatal(err)
	}
	if held := mapsHeld(c); held != 0 {
		t.Fatalf("%d mappings held after the reader unpinned and a write, want 0", held)
	}
	res, err := c.Search(bg, SearchRequest{Vector: ds.Row(10), K: 2})
	if err != nil || len(res.Hits) != 2 || res.Hits[1].Dist != 0 {
		t.Fatalf("search after release: %+v %v", res, err)
	}
}

// TestRetiredDuringBuildRebinds: a build that reads a mapping a write
// retires mid-build keeps it alive until the build ends; the index it
// installs is rebound onto the current heap column, the mapping is
// released, and the index still answers correctly.
func TestRetiredDuringBuildRebinds(t *testing.T) {
	if !storage.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	registerColumnIndex()
	c, ds := newCol(t, 200)
	defer c.Close()
	attachTestManager(t, c)
	if err := c.EvictToMmap(); err != nil {
		t.Fatal(err)
	}
	colGate, colStarted = make(chan struct{}), make(chan struct{}, 1)
	release := sync.OnceFunc(func() { close(colGate) })
	defer release()
	created := make(chan error, 1)
	go func() { created <- c.CreateIndex("testcolumn", nil) }()
	<-colStarted
	if err := c.UpdateVector(9, ds.Row(9)); err != nil { // promotes mid-build
		t.Fatal(err)
	}
	if tier, held := c.Tier(), mapsHeld(c); tier != "heap" || held != 1 {
		t.Fatalf("mid-build: tier %q with %d mappings, want heap keeping the one the build reads", tier, held)
	}
	release()
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	if held := mapsHeld(c); held != 0 {
		t.Fatalf("%d mappings held after the install, want 0", held)
	}
	c.mu.Lock()
	ci, ok := c.ann.(colIndex)
	rebound := ok && &ci.data[0] == &c.data[0]
	c.mu.Unlock()
	if !rebound {
		t.Fatal("the installed index does not score the heap column")
	}
	for _, row := range []int{0, 9, 199} {
		hits, err := ci.Search(ds.Row(row), 1, index.Params{})
		if err != nil || hits[0].ID != int64(row) || hits[0].Dist != 0 {
			t.Fatalf("index search for row %d: %+v %v", row, hits, err)
		}
		res, err := c.Search(bg, SearchRequest{Vector: ds.Row(row), K: 1})
		if err != nil || res.Hits[0].ID != int64(row) || res.Hits[0].Dist != 0 {
			t.Fatalf("search for row %d: %+v %v", row, res, err)
		}
	}
}

// BenchmarkUpdateInPlace measures the satellite-1 fix: with no pinned
// snapshot reader, an update patches one row in place (O(d)) instead
// of cloning the whole column (O(n·d)).
func BenchmarkUpdateInPlace(b *testing.B) {
	const n, d = 50000, 128
	c, _ := NewCollection("b", Schema{Dim: d})
	ds := dataset.Clustered(n, d, 8, 0.3, 1)
	for i := 0; i < n; i++ {
		c.Insert(ds.Row(i), nil) //nolint:errcheck
	}
	v := ds.Row(1)
	b.SetBytes(int64(d * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.UpdateVector(int64(i%n), v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateCOW is the same workload with a reader permanently
// pinned, forcing every update down the O(n·d) copy-on-write path —
// the before picture of the satellite-1 fix.
func BenchmarkUpdateCOW(b *testing.B) {
	const n, d = 50000, 128
	c, _ := NewCollection("b", Schema{Dim: d})
	ds := dataset.Clustered(n, d, 8, 0.3, 1)
	for i := 0; i < n; i++ {
		c.Insert(ds.Row(i), nil) //nolint:errcheck
	}
	c.beginRead() // pinned reader: tryPatchLocked must refuse
	defer c.endRead()
	v := ds.Row(1)
	b.SetBytes(int64(d * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.UpdateVector(int64(i%n), v); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompactReclaimsDeadRows: deleting every other of 2 000 rows and
// compacting leaves Len and Rows as they were, and the collection then
// costs what a fresh 1 000-row one does — a forced exact scan scores
// 1 000 rows and the accounted vector bytes are 1 000·dim·4, a mapped
// column promoted back to heap — while every id issued before the
// compaction still gets, updates and deletes its own vector.
func TestCompactReclaimsDeadRows(t *testing.T) {
	const n, dim = 2000, 8
	ds := dataset.Clustered(n, dim, 4, 0.3, 5)
	c, err := NewCollection("compact", Schema{Dim: dim, Attributes: map[string]filter.Kind{"g": filter.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), map[string]filter.Value{"g": filter.IntV(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("hnsw", map[string]int{"m": 8}); err != nil {
		t.Fatal(err)
	}
	a := attachTestManager(t, c).Accounts()[0]
	for id := int64(0); id < n; id += 2 {
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	c.WaitForIndex() // the deletes started a staleness rebuild
	if storage.MmapSupported() {
		if err := c.EvictToMmap(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	c.WaitForIndex()
	if c.Len() != n/2 || c.Rows() != n {
		t.Fatalf("compacted: live=%d rows=%d, want %d and %d", c.Len(), c.Rows(), n/2, n)
	}
	if kind, covered, _ := c.IndexInfo(); kind != "hnsw" || covered != n/2 {
		t.Fatalf("compacted: index %q covers %d rows, want hnsw over %d", kind, covered, n/2)
	}
	if c.Tier() != "heap" || a.Get(memory.CatVectors) != n/2*dim*4 {
		t.Fatalf("compacted: %s tier, %d vector bytes accounted, want heap and %d", c.Tier(), a.Get(memory.CatVectors), n/2*dim*4)
	}
	res, err := c.Search(bg, SearchRequest{Vector: ds.Row(1), K: 10, Policy: "plan:brute_force", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var comps func(sp obs.SpanReport) int64
	comps = func(sp obs.SpanReport) int64 {
		sum := sp.Annotations["distance_comps"]
		for _, ch := range sp.Children {
			sum += comps(ch)
		}
		return sum
	}
	if got := comps(*res.Trace); got != n/2 || res.Hits[0].ID != 1 || res.Hits[0].Dist != 0 {
		t.Fatalf("exact scan: %d distance comps, top hit %+v; want %d and id 1 at 0", got, res.Hits[0], n/2)
	}
	for id := int64(0); id < n; id++ {
		v, attrs, err := c.Get(id)
		if id%2 == 0 {
			if err == nil {
				t.Fatalf("deleted id %d answers Get", id)
			}
			continue
		}
		if err != nil || !slices.Equal(v, ds.Row(int(id))) || attrs["g"].I != id {
			t.Fatalf("id %d = %v %v %v, want its own vector", id, v, attrs, err)
		}
	}
	// Update and delete through pre-compaction ids: an update moves the
	// vector its id names (an exact search for the new value finds that
	// id at distance 0), a delete hides it.
	for id := int64(1); id < n; id += 250 {
		moved := ds.Row(int(id - 1))
		if err := c.UpdateVector(id, moved); err != nil {
			t.Fatal(err)
		}
		if v, _, err := c.Get(id); err != nil || !slices.Equal(v, moved) {
			t.Fatalf("updated id %d = %v %v", id, v, err)
		}
		res, err := c.Search(bg, SearchRequest{Vector: moved, K: 1, Policy: "plan:brute_force"})
		if err != nil || res.Hits[0].ID != id || res.Hits[0].Dist != 0 {
			t.Fatalf("search for updated id %d: %v %v", id, res.Hits, err)
		}
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(id); err == nil {
			t.Fatalf("id %d answers Get after its delete", id)
		}
		if res, err := c.Search(bg, SearchRequest{Vector: moved, K: 1, Policy: "plan:brute_force"}); err != nil || res.Hits[0].ID == id {
			t.Fatalf("search after deleting id %d: %v %v", id, res.Hits, err)
		}
	}
	if id, err := c.Insert(ds.Row(0), map[string]filter.Value{"g": filter.IntV(0)}); err != nil || id != n {
		t.Fatalf("insert after compact: id %d, %v; want %d", id, err, n)
	}
}
