package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/filter"
	"vdbms/internal/index"
	"vdbms/internal/vec"
)

// These tests pin the three guarantees of the snapshot engine (run
// them with -race; the detector is half the oracle):
//
//  1. No torn state: a search never observes a half-applied write —
//     results are sorted, duplicate-free, in range, and never contain
//     a row whose Delete completed before the search started.
//  2. No build on the query path: searches complete while a background
//     index build is parked inside its build function.
//  3. Determinism: against a frozen snapshot, results are identical
//     across repeated searches and across Search/SearchBatch.

// TestSnapshotIsolationStress is guarantee (1): concurrent inserts,
// deletes, updates, index create/drop, and searches, with a
// linearizability check on deletes.
func TestSnapshotIsolationStress(t *testing.T) {
	const (
		preload = 300
		dim     = 8
	)
	c, err := NewCollection("stress", Schema{
		Dim:        dim,
		Attributes: map[string]filter.Kind{"g": filter.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(preload, dim, 4, 0.4, 3)
	for i := 0; i < preload; i++ {
		if _, err := c.Insert(ds.Row(i), map[string]filter.Value{"g": filter.IntV(int64(i % 10))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("hnsw", map[string]int{"m": 6}); err != nil {
		t.Fatal(err)
	}

	var (
		stop    = make(chan struct{})
		writers sync.WaitGroup
		readers sync.WaitGroup
		deadMu  sync.Mutex
		dead    = map[int64]struct{}{} // ids whose Delete has returned
		deleted atomic.Int64
	)
	copyDead := func() map[int64]struct{} {
		deadMu.Lock()
		defer deadMu.Unlock()
		out := make(map[int64]struct{}, len(dead))
		for id := range dead {
			out[id] = struct{}{}
		}
		return out
	}

	// Writer: cycles inserts, updates, deletes. Deletes are recorded in
	// the shared set only after Delete returns, so any search started
	// afterwards must not surface the id.
	writers.Add(1)
	go func() {
		defer writers.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 8 {
			case 0:
				c.Insert(ds.Row(i%preload), map[string]filter.Value{"g": filter.IntV(int64(i % 10))}) //nolint:errcheck
			case 1:
				if deleted.Load() < preload/3 {
					id := int64((i * 13) % preload)
					if err := c.Delete(id); err == nil {
						deadMu.Lock()
						dead[id] = struct{}{}
						deadMu.Unlock()
						deleted.Add(1)
					}
				}
			default:
				c.UpdateVector(int64(i%preload), ds.Row((i*7)%preload)) //nolint:errcheck
			}
			i++
		}
	}()

	// Index churn: replace and drop the index while searches run.
	writers.Add(1)
	go func() {
		defer writers.Done()
		kinds := []string{"hnsw", "ivfflat"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%5 == 4 {
				c.DropIndex()
			} else {
				c.CreateIndex(kinds[i%2], nil) //nolint:errcheck
			}
		}
	}()

	var searchErr atomic.Value
	record := func(err error) {
		searchErr.CompareAndSwap(nil, err)
	}
	const searchers = 4
	for s := 0; s < searchers; s++ {
		readers.Add(1)
		go func(seed int) {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				pre := copyDead()
				req := SearchRequest{Vector: ds.Row((seed*31 + i) % preload), K: 5, Ef: 48}
				if i%4 == 3 {
					req.Policy = "plan:brute_force"
				}
				out, err := c.Search(bg, req)
				if err != nil {
					record(fmt.Errorf("search %d/%d: %w", seed, i, err))
					return
				}
				res := out.Hits
				seen := map[int64]struct{}{}
				for j, r := range res {
					if r.ID < 0 || r.ID >= int64(c.Rows()) {
						record(fmt.Errorf("id %d out of range", r.ID))
						return
					}
					if _, dup := seen[r.ID]; dup {
						record(fmt.Errorf("duplicate id %d", r.ID))
						return
					}
					seen[r.ID] = struct{}{}
					if j > 0 && res[j-1].Dist > r.Dist {
						record(fmt.Errorf("unsorted results: %v", res))
						return
					}
					if _, gone := pre[r.ID]; gone {
						record(fmt.Errorf("id %d surfaced after its delete completed", r.ID))
						return
					}
				}
			}
		}(s)
	}

	// Range queries ride along under the same oracle.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; i < 100; i++ {
			pre := copyDead()
			out, err := c.Search(bg, SearchRequest{Vector: ds.Row(i % preload), K: c.Rows(), Radius: 2.0})
			if err != nil {
				record(fmt.Errorf("range %d: %w", i, err))
				return
			}
			for _, r := range out.Hits {
				if _, gone := pre[r.ID]; gone {
					record(fmt.Errorf("range: id %d surfaced after its delete completed", r.ID))
					return
				}
			}
		}
	}()

	// Readers run fixed iteration counts and drive the test duration;
	// writers loop until told to stop.
	readers.Wait()
	close(stop)
	writers.Wait()
	if err, _ := searchErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	c.WaitForIndex()
}

// Gate for the blocking test index: when armed, builds park on the
// channel; a CreateIndex issued before arming builds at once.
var (
	holdMu      sync.Mutex
	holdCh      chan struct{}
	holdStarted chan struct{}
	holdOnce    sync.Once
)

func registerHoldIndex() {
	holdOnce.Do(func() {
		index.Register(index.Family{Name: "testhold", Metrics: index.AnyMetric, Build: func(data []float32, n, d int, metric vec.Metric, opts map[string]int) (index.Index, error) {
			holdMu.Lock()
			ch, started := holdCh, holdStarted
			holdMu.Unlock()
			if ch != nil {
				if started != nil {
					select {
					case started <- struct{}{}:
					default:
					}
				}
				<-ch
			}
			return index.NewFlat(data, n, d, nil)
		}})
	})
}

// TestSearchDuringBackgroundBuild is guarantee (2): with the builder
// provably parked inside its build function, searches and writes
// complete normally. Under the old engine the search path ran the
// rebuild inline and this test would hang.
func TestSearchDuringBackgroundBuild(t *testing.T) {
	registerHoldIndex()
	const rows = 200
	c, ds := newCol(t, rows)
	if err := c.CreateIndex("testhold", nil); err != nil { // gate disarmed: instant
		t.Fatal(err)
	}

	holdMu.Lock()
	holdCh = make(chan struct{})
	holdStarted = make(chan struct{}, 1)
	holdMu.Unlock()
	defer func() {
		holdMu.Lock()
		ch := holdCh
		holdCh, holdStarted = nil, nil
		holdMu.Unlock()
		if ch != nil {
			close(ch)
		}
	}()

	// 45 updates: the 41st crosses the 0.2*200 threshold and starts the
	// background build, which parks on the gate.
	for i := 0; i < 45; i++ {
		if err := c.UpdateVector(int64(i), ds.Row((i+7)%rows)); err != nil {
			t.Fatal(err)
		}
	}
	<-holdStarted
	if _, _, _, building := c.IndexStatus(); !building {
		t.Fatal("background build should be in flight")
	}

	// Searches must complete while the builder is parked. The installed
	// index still covers every row (updates do not change the row
	// count), so these go through the index path, not just exact scan.
	for i := 0; i < 25; i++ {
		res, err := c.Search(bg, SearchRequest{Vector: ds.Row(i), K: 3, Ef: 32})
		if err != nil || len(res.Hits) != 3 {
			t.Fatalf("search during build: %v %v", res.Hits, err)
		}
	}
	// Writes must not block on the build either.
	if _, err := c.Insert(ds.Row(0), map[string]filter.Value{"g": filter.IntV(0)}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, building := c.IndexStatus(); !building {
		t.Fatal("build should still be parked after searches and writes")
	}
	// Nor does a Compact: it drops the index (searches scan exactly)
	// and supersedes the parked build.
	if err := c.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, covered, _, building := c.IndexStatus(); covered != 0 || !building {
		t.Fatalf("after compact: covered=%d building=%v, want no index and the parked build", covered, building)
	}
	if res, err := c.Search(bg, SearchRequest{Vector: ds.Row(100), K: 1}); err != nil || res.Hits[0].ID != 100 || res.Plan != "brute_force" {
		t.Fatalf("search after compact: %+v %v", res, err)
	}

	// Release the gate; the parked build is discarded as stale and the
	// builder rebuilds the recipe over the compacted rows.
	holdMu.Lock()
	ch := holdCh
	holdCh, holdStarted = nil, nil
	holdMu.Unlock()
	close(ch)
	c.WaitForIndex()
	kind, covered, _, building := c.IndexStatus()
	if building || kind != "testhold" {
		t.Fatalf("after wait: kind=%q building=%v", kind, building)
	}
	if covered != rows { // one insert, one delete compacted away
		t.Fatalf("covered = %d, want %d", covered, rows)
	}
}

// TestCreateIndexSupersededByCompact: a Compact that lands while a
// CreateIndex builds discards that build, but the recipe stands — the
// builder builds it over the compacted rows, CreateIndex returns once
// it has, and the recipe is logged, so recovery rebuilds it.
func TestCreateIndexSupersededByCompact(t *testing.T) {
	registerHoldIndex()
	const rows = 100
	dir := t.TempDir()
	c, err := CreateDurable(dir, "t", Schema{Dim: 4}, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(rows, 4, 4, 0.3, 1)
	for i := 0; i < rows; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	holdMu.Lock()
	holdCh, holdStarted = make(chan struct{}), make(chan struct{}, 1)
	ch := holdCh
	holdMu.Unlock()
	created := make(chan error)
	go func() { created <- c.CreateIndex("testhold", nil) }()
	<-holdStarted
	if err := c.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	holdMu.Lock()
	holdCh, holdStarted = nil, nil
	holdMu.Unlock()
	close(ch)
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	if kind, covered, _ := c.IndexInfo(); kind != "testhold" || covered != rows-1 {
		t.Fatalf("after CreateIndex: index %q covers %d, want testhold over %d", kind, covered, rows-1)
	}
	// Crash, not Close: the recipe must come back from the log.
	if err := c.wal.log.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Recover(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if kind, covered, _ := re.IndexInfo(); kind != "testhold" || covered != rows {
		t.Fatalf("recovered: index %q covers %d, want testhold over %d", kind, covered, rows)
	}
}

// TestFrozenSnapshotDeterminism is guarantee (3): once writes quiesce,
// the same request returns byte-identical results every time and
// through the batch path.
func TestFrozenSnapshotDeterminism(t *testing.T) {
	c, ds := newCol(t, 400)
	if err := c.CreateIndex("hnsw", map[string]int{"m": 8}); err != nil {
		t.Fatal(err)
	}
	// A quick storm, then quiesce.
	for i := 0; i < 120; i++ {
		switch i % 6 {
		case 0:
			c.Delete(int64(i)) //nolint:errcheck
		default:
			c.UpdateVector(int64((i*11)%400), ds.Row((i*3)%400)) //nolint:errcheck
		}
	}
	c.WaitForIndex()

	for _, policy := range []string{"", "plan:brute_force"} {
		var want []Result
		for rep := range 3 {
			out, err := c.Search(bg, SearchRequest{Vector: ds.Row(5), K: 10, Ef: 64, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			res := out.Hits
			if want == nil {
				want = res
				continue
			}
			if len(res) != len(want) {
				t.Fatalf("policy %q repeat %d: %d results, want %d", policy, rep, len(res), len(want))
			}
			for i := range res {
				if res[i] != want[i] {
					t.Fatalf("policy %q repeat %d: result %d = %v, want %v", policy, rep, i, res[i], want[i])
				}
			}
		}
		// The batch path shares the same snapshot discipline.
		batch, err := c.SearchBatch(bg, [][]float32{ds.Row(5)}, SearchRequest{K: 10, Ef: 64, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch[0] {
			if batch[0][i] != want[i] {
				t.Fatalf("policy %q batch: result %d = %v, want %v", policy, i, batch[0][i], want[i])
			}
		}
	}
}
