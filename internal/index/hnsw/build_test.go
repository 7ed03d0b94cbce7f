package hnsw

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"vdbms/internal/dataset"
	"vdbms/internal/pool"
	"vdbms/internal/vec"
)

// build runs one construction and returns the builder, whose changed
// table tells whether the speculative batches ran.
func build(t testing.TB, ds *dataset.Dataset, cfg Config) *builder {
	t.Helper()
	h, err := newBuilder(ds.Data, ds.Count, ds.Dim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.run()
	return h
}

// sameGraph reports where two builds differ: entry, top layer, layer
// count or any out-list.
func sameGraph(a, b *builder) error {
	if a.entry != b.entry || a.maxLv != b.maxLv || len(a.layers) != len(b.layers) {
		return fmt.Errorf("entry %d/%d, top layer %d/%d, %d/%d layers", a.entry, b.entry, a.maxLv, b.maxLv, len(a.layers), len(b.layers))
	}
	for l := range a.layers {
		for v := range a.layers[l] {
			if !slices.Equal(a.layers[l][v], b.layers[l][v]) {
				return fmt.Errorf("layer %d node %d: %v, want %v", l, v, a.layers[l][v], b.layers[l][v])
			}
		}
	}
	return nil
}

// TestSpeculativeBuildMatchesSerial: the batched build gives the graph
// of the width-1 loop edge for edge, at every width, on graphs smaller
// than a batch and just above it, under m = 2 (whose tall levels move
// the entry point inside a batch, about one node in two), with naive
// selection and under every metric.
func TestSpeculativeBuildMatchesSerial(t *testing.T) {
	unit := dataset.Clustered(400, 16, 4, 0.5, 5)
	for i := 0; i < unit.Count; i++ {
		vec.Normalize(unit.Row(i))
	}
	cases := []struct {
		name string
		ds   *dataset.Dataset
		cfg  Config
	}{
		{"n=1", dataset.Uniform(1, 8, 1), Config{M: 4}},
		{"n=2", dataset.Uniform(2, 8, 1), Config{M: 4}},
		{"n=3", dataset.Uniform(3, 8, 1), Config{M: 4}},
		{"n=5", dataset.Uniform(5, 8, 1), Config{M: 4}},
		{"m=2", dataset.Clustered(600, 8, 6, 0.5, 2), Config{M: 2, Seed: 4}},
		{"naive", dataset.Clustered(600, 8, 6, 0.5, 3), Config{M: 6, Seed: 5, NaiveSelection: true}},
		{"l2", dataset.Clustered(800, 16, 8, 1.0, 4), Config{M: 8, Seed: 6}},
		{"cosine", unit, Config{M: 8, Seed: 7, Metric: vec.Cosine}},
		{"ip", unit, Config{M: 8, Seed: 8, Metric: vec.InnerProduct}},
	}
	setProcs(t, 2)
	for _, tc := range cases {
		setWidth(t, 1)
		want := build(t, tc.ds, tc.cfg)
		for _, w := range []int{2, 4, 8, 16} {
			setWidth(t, w)
			got := build(t, tc.ds, tc.cfg)
			if got.changed == nil {
				t.Fatalf("%s width %d: the build ran serially", tc.name, w)
			}
			if err := sameGraph(got, want); err != nil {
				t.Errorf("%s width %d: %v", tc.name, w, err)
			}
			if min := tc.ds.Count - 1; got.searches < min {
				t.Errorf("%s width %d: %d searches for %d inserts", tc.name, w, got.searches, min)
			}
		}
	}
}

// TestStaleRule: a plan is stale exactly when a commit after its search
// began changed a list it read, on the layer it read it, or moved the
// entry point.
func TestStaleRule(t *testing.T) {
	setWidth(t, 1)
	ds := dataset.Clustered(300, 8, 4, 0.5, 3)
	h := build(t, ds, Config{M: 4, Seed: 2})
	h.changed = make([][]int32, len(h.layers))
	for l := range h.changed {
		h.changed[l] = make([]int32, h.n)
	}
	if len(h.layers) < 2 {
		t.Fatalf("%d layers, want a hierarchy", len(h.layers))
	}
	p := plan{id: int32(h.n - 1), base: 10}
	h.search(&p, true)
	if len(p.ends) != h.maxLv+1 {
		t.Fatalf("%d layers recorded, want %d", len(p.ends), h.maxLv+1)
	}
	// reads returns what the search read on layer l.
	reads := func(l int) []int32 {
		i, from := p.top-l, 0
		if i > 0 {
			from = p.ends[i-1]
		}
		return p.rec.reads[from:p.ends[i]]
	}
	read := reads(0)[len(reads(0))-1]
	unread := int32(0)
	for slices.Contains(reads(0), unread) {
		unread++
	}
	if slices.Contains(reads(1), read) {
		t.Fatalf("node %d read on layers 0 and 1; pick another", read)
	}
	for _, tc := range []struct {
		name  string
		edit  func()
		stale bool
	}{
		{"no commit", func() {}, false},
		{"commit before the search", func() { h.changed[0][read] = p.base }, false},
		{"read list changed", func() { h.changed[0][read] = p.base + 1 }, true},
		{"unread list changed", func() { h.changed[0][unread] = p.base + 1 }, false},
		{"list read on another layer changed", func() { h.changed[1][read] = p.base + 1 }, false},
		{"entry moved", func() { h.entryChanged = p.base + 1 }, true},
	} {
		for l := range h.changed {
			clear(h.changed[l])
		}
		h.entryChanged = 0
		tc.edit()
		if got := h.stale(&p); got != tc.stale {
			t.Errorf("%s: stale %v, want %v", tc.name, got, tc.stale)
		}
	}
}

// settle waits for the goroutine count to fall back to base and reports
// the last count: a helper that has signalled its exit may not yet be
// gone.
func settle(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// TestBuildReleasesHelpers: parallel builds, one alone and two at once,
// leave no helper running and no pool token taken, also when a shape
// check fails; and a build that finds every token taken runs serially
// and builds the same graph.
func TestBuildReleasesHelpers(t *testing.T) {
	setProcs(t, 8)
	ds := dataset.Clustered(1000, 16, 8, 1.0, 9)
	cfg := Config{M: 8, Seed: 2}
	p := pool.Default()
	base := runtime.NumGoroutine()
	par := build(t, ds, cfg)
	if par.changed == nil {
		t.Fatal("the build ran serially with the pool free")
	}
	if got := settle(base); got != base {
		t.Errorf("%d goroutines after the build, %d before", got, base)
	}
	if _, err := Build(ds.Data, ds.Count+1, ds.Dim, cfg); err == nil {
		t.Fatal("want a shape error")
	}
	if got := settle(base); got != base {
		t.Errorf("%d goroutines after a failed build, %d before", got, base)
	}
	var wg sync.WaitGroup
	both := make([]*builder, 2)
	for i := range both {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := newBuilder(ds.Data, ds.Count, ds.Dim, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			h.run()
			both[i] = h
		}()
	}
	wg.Wait()
	for i, h := range both {
		if h == nil {
			continue
		}
		if err := sameGraph(h, par); err != nil {
			t.Errorf("build %d of two at once: %v", i, err)
		}
	}
	if got := settle(base); got != base {
		t.Errorf("%d goroutines after two builds at once, %d before", got, base)
	}
	held := p.TryAcquire(p.Size())
	if held != p.Size() {
		t.Errorf("%d of %d pool tokens free after the builds", held, p.Size())
	}
	ser := build(t, ds, cfg)
	p.Release(held)
	if ser.changed != nil {
		t.Error("the build ran speculatively with every pool token held")
	}
	if err := sameGraph(ser, par); err != nil {
		t.Errorf("serial build under a saturated pool: %v", err)
	}
}

// BenchmarkBuild builds the ann_search benchmark's index, 20 000
// clustered 128-d rows at m = 16, at each batch width, and reports the
// searches per inserted node (1 when no search is repeated).
func BenchmarkBuild(b *testing.B) {
	ds := dataset.Clustered(20000, 128, 64, 1.0, 1)
	for _, w := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) {
			setWidth(b, w)
			searches := 0
			for i := 0; i < b.N; i++ {
				searches += build(b, ds, Config{M: 16}).searches
			}
			b.ReportMetric(float64(searches)/float64(b.N*(ds.Count-1)), "searches/node")
		})
	}
}
