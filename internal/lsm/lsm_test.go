package lsm

import (
	"math/rand"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
)

func newSmall(t *testing.T, memtable int) *Collection {
	t.Helper()
	c, err := New(Config{Dim: 8, MemtableSize: memtable})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestUpsertGetDelete(t *testing.T) {
	c := newSmall(t, 100)
	if err := c.Upsert(1, []float32{1, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get(1)
	if !ok || v[0] != 1 {
		t.Fatalf("Get = %v %v", v, ok)
	}
	// Upsert replaces.
	if err := c.Upsert(1, []float32{2, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	v, _ = c.Get(1)
	if v[0] != 2 {
		t.Fatalf("after upsert Get = %v", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if !c.Delete(1) {
		t.Fatal("Delete should succeed")
	}
	if c.Delete(1) || c.Delete(99) {
		t.Fatal("double/absent delete should be false")
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("deleted id visible")
	}
	if c.Len() != 0 {
		t.Fatalf("Len after delete = %d", c.Len())
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("want dim error")
	}
	c := newSmall(t, 10)
	if err := c.Upsert(1, []float32{1}); err == nil {
		t.Fatal("want dim error on upsert")
	}
	if _, err := c.Search([]float32{1}, 5, 0, nil); err == nil {
		t.Fatal("want dim error on search")
	}
	if _, err := c.Search(make([]float32, 8), 0, 0, nil); err != index.ErrBadK {
		t.Fatal("want ErrBadK")
	}
	if _, err := c.SearchExact(make([]float32, 8), 0); err != index.ErrBadK {
		t.Fatal("want ErrBadK from exact")
	}
	if _, err := c.SearchExact([]float32{1}, 3); err == nil {
		t.Fatal("want dim error from exact")
	}
}

func TestAutoFlushCreatesSegments(t *testing.T) {
	c := newSmall(t, 50)
	ds := dataset.Clustered(200, 8, 4, 0.4, 1)
	for i := 0; i < 200; i++ {
		if err := c.Upsert(int64(i), ds.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Segments() == 0 || c.Flushes() < 4 {
		t.Fatalf("segments=%d flushes=%d", c.Segments(), c.Flushes())
	}
	if c.Len() != 200 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestSearchSpansMemtableAndSegments(t *testing.T) {
	c := newSmall(t, 64)
	ds := dataset.Clustered(150, 8, 4, 0.4, 3)
	for i := 0; i < 150; i++ {
		if err := c.Upsert(int64(i), ds.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 150 rows, memtable 64: two segments + 22 in memtable.
	q := ds.Queries(1, 0.02, 4)[0]
	got, err := c.Search(q, 10, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := c.SearchExact(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]bool{}
	for _, r := range exact {
		want[r.ID] = true
	}
	hits := 0
	for _, r := range got {
		if want[r.ID] {
			hits++
		}
	}
	if hits < 8 {
		t.Fatalf("indexed search found %d/10 of exact", hits)
	}
}

func TestDeletedRowsInvisibleAfterFlush(t *testing.T) {
	c := newSmall(t, 20)
	ds := dataset.Uniform(60, 8, 5)
	for i := 0; i < 60; i++ {
		c.Upsert(int64(i), ds.Row(i))
	}
	c.Flush()
	c.Delete(7)
	got, err := c.Search(ds.Row(7), 60, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.ID == 7 {
			t.Fatal("deleted id returned from segment search")
		}
	}
}

func TestUpsertShadowsOldVersionAcrossSegments(t *testing.T) {
	c := newSmall(t, 10)
	ds := dataset.Uniform(30, 8, 7)
	for i := 0; i < 30; i++ {
		c.Upsert(int64(i), ds.Row(i))
	}
	c.Flush()
	// Move id 3 far away; old copy lives in a sealed segment.
	far := []float32{100, 100, 100, 100, 100, 100, 100, 100}
	c.Upsert(3, far)
	got, err := c.Search(ds.Row(3), 5, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.ID == 3 && r.Dist < 1 {
			t.Fatal("stale version of id 3 surfaced")
		}
	}
	// And searching near the new location finds it.
	got, _ = c.Search(far, 1, 200, nil)
	if len(got) == 0 || got[0].ID != 3 {
		t.Fatalf("new version not found: %v", got)
	}
}

func TestCompactionDropsDeadRows(t *testing.T) {
	c, err := New(Config{Dim: 8, MemtableSize: 25, MaxSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Uniform(100, 8, 9)
	for i := 0; i < 100; i++ {
		c.Upsert(int64(i), ds.Row(i))
	}
	c.Flush()
	for i := 0; i < 50; i++ {
		c.Delete(int64(i))
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if c.Segments() != 1 {
		t.Fatalf("segments after compact = %d", c.Segments())
	}
	if c.Compactions() != 1 {
		t.Fatalf("compactions = %d", c.Compactions())
	}
	if c.Len() != 50 {
		t.Fatalf("live = %d", c.Len())
	}
	got, err := c.Search(ds.Row(75), 50, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("post-compaction search size = %d", len(got))
	}
	for _, r := range got {
		if r.ID < 50 {
			t.Fatalf("dead id %d visible after compaction", r.ID)
		}
	}
}

func TestAutoCompaction(t *testing.T) {
	c, err := New(Config{Dim: 8, MemtableSize: 10, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Uniform(100, 8, 11)
	for i := 0; i < 100; i++ {
		c.Upsert(int64(i), ds.Row(i))
	}
	if c.Segments() >= 3 {
		t.Fatalf("auto-compaction did not bound segments: %d", c.Segments())
	}
	if c.Compactions() == 0 {
		t.Fatal("no compaction ran")
	}
}

func TestCompactEmptyAndAllDead(t *testing.T) {
	c := newSmall(t, 10)
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	ds := dataset.Uniform(10, 8, 13)
	for i := 0; i < 10; i++ {
		c.Upsert(int64(i), ds.Row(i))
	}
	c.Flush()
	for i := 0; i < 10; i++ {
		c.Delete(int64(i))
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if c.Segments() != 0 || c.Len() != 0 {
		t.Fatalf("all-dead compaction: segs=%d live=%d", c.Segments(), c.Len())
	}
}

// TestSpillAllDeadCompaction: compacting several sealed segments down to
// zero live rows leaves no segment and Len 0.
func TestSpillAllDeadCompaction(t *testing.T) {
	c := newSmall(t, 10)
	ds := dataset.Clustered(40, 8, 2, 0.4, 4)
	for i := 0; i < 40; i++ {
		if err := c.Upsert(int64(i), ds.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Segments() != 4 {
		t.Fatalf("%d segments sealed, want 4", c.Segments())
	}
	for i := 0; i < 40; i++ {
		c.Delete(int64(i))
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if c.Segments() != 0 || c.Len() != 0 {
		t.Fatalf("all-dead compaction: segs=%d live=%d", c.Segments(), c.Len())
	}
}

func TestExtraPredicate(t *testing.T) {
	c := newSmall(t, 16)
	ds := dataset.Uniform(50, 8, 15)
	for i := 0; i < 50; i++ {
		c.Upsert(int64(i), ds.Row(i))
	}
	got, err := c.Search(ds.Row(0), 10, 200, func(id int64) bool { return id%2 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.ID%2 != 0 {
			t.Fatalf("extra predicate violated: %d", r.ID)
		}
	}
}

// Invariant under a random workload: Search with huge ef matches
// SearchExact, and live count tracks the reference map.
func TestRandomizedWorkloadConsistency(t *testing.T) {
	c, err := New(Config{Dim: 4, MemtableSize: 32, MaxSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	ref := map[int64][]float32{}
	for step := 0; step < 600; step++ {
		id := int64(rng.Intn(80))
		switch rng.Intn(3) {
		case 0, 1:
			v := []float32{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()}
			if err := c.Upsert(id, v); err != nil {
				t.Fatal(err)
			}
			ref[id] = v
		case 2:
			got := c.Delete(id)
			_, had := ref[id]
			if got != had {
				t.Fatalf("step %d: delete(%d) = %v, ref had %v", step, id, got, had)
			}
			delete(ref, id)
		}
	}
	if c.Len() != len(ref) {
		t.Fatalf("live = %d, ref = %d", c.Len(), len(ref))
	}
	q := []float32{0.5, 0.5, 0.5, 0.5}
	exact, err := c.SearchExact(q, len(ref))
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != len(ref) {
		t.Fatalf("exact returned %d of %d live", len(exact), len(ref))
	}
	for _, r := range exact {
		if _, ok := ref[r.ID]; !ok {
			t.Fatalf("ghost id %d", r.ID)
		}
	}
}
