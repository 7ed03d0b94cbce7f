package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"vdbms/internal/dataset"
	"vdbms/internal/obs"
	"vdbms/internal/pool"
)

// TestConcurrentScansRunInOnePart: an exact scan holds a core of the
// worker pool while it runs, and splits only onto the cores no scan
// holds. On two free cores a lone brute-force search scans in two parts;
// two in flight at once take one core each, and each scans in one part.
// The two meet twice, through their contexts: once both hold their cores
// (the probe reads the deadline as it checks the context on entry), and
// once both have picked their part counts (the part polls Done), so
// neither can finish and free its core before the other has picked.
func TestConcurrentScansRunInOnePart(t *testing.T) {
	p := pool.Default()
	if p.Size() < 2 {
		t.Skip("a pool of one core never splits")
	}
	// Leave exactly two cores free, as at GOMAXPROCS=2.
	held := p.TryAcquire(p.Size() - 2)
	defer p.Release(held)
	if held != p.Size()-2 {
		t.Fatalf("%d of %d tokens free", p.Size()-held, p.Size())
	}
	ds := dataset.Uniform(4096, 8, 3)
	c, err := NewCollection("split", Schema{Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < ds.Count; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	search := func(ctx context.Context) (SearchResult, int64) {
		res, err := c.Search(ctx, SearchRequest{Vector: ds.Row(9), K: 10, Policy: "plan:brute_force", Trace: true})
		if err != nil {
			t.Error(err)
			return res, 0
		}
		return res, probePartitions(res.Trace)
	}

	lone, parts := search(context.Background())
	if parts != 2 {
		t.Fatalf("a lone search on two free cores scanned in %d parts, want 2", parts)
	}
	var holding, picked sync.WaitGroup
	holding.Add(2)
	picked.Add(2)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := &meetCtx{Context: context.Background(), holding: &holding, picked: &picked}
			res, parts := search(ctx)
			if parts != 1 {
				t.Errorf("two searches at once on two cores: one scanned in %d parts, want 1", parts)
			}
			sameHits(t, lone.Hits, res.Hits)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the two searches never met")
	}
}

// probePartitions is the part count the index_probe span of a traced
// search records.
func probePartitions(s *obs.SpanReport) int64 {
	if s == nil {
		return 0
	}
	if s.Stage == "index_probe" {
		return s.Annotations["partitions"]
	}
	for i := range s.Children {
		if n := probePartitions(&s.Children[i]); n > 0 {
			return n
		}
	}
	return 0
}

// sameHits fails t unless got holds want's ids and distance bits.
func sameHits(t *testing.T, want, got []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d hits, want %d", len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("hit %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// meetCtx is a context that waits for a second search at two points:
// when the probe first reads its deadline, after the scan has taken its
// core, and when the scan's first part polls Done, after the scan has
// picked its part count.
type meetCtx struct {
	context.Context
	holding, picked *sync.WaitGroup
	h, p            sync.Once
}

func (c *meetCtx) Deadline() (time.Time, bool) {
	c.h.Do(c.holding.Done)
	c.holding.Wait()
	return time.Time{}, false
}

func (c *meetCtx) Done() <-chan struct{} {
	c.p.Do(c.picked.Done)
	c.picked.Wait()
	return nil
}
