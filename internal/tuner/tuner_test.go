package tuner

import (
	"sync"
	"testing"
)

func TestBucketOf(t *testing.T) {
	// k within (2^(b-1), 2^b] shares a bucket; 10 and 100 must not.
	if bucketOf(10) != bucketOf(12) {
		t.Errorf("k=10 and k=12 should share a bucket")
	}
	if bucketOf(10) == bucketOf(100) {
		t.Errorf("k=10 and k=100 must not share a bucket")
	}
	if bucketOf(1) != 0 {
		t.Errorf("bucketOf(1) = %d, want 0", bucketOf(1))
	}
	if b := bucketOf(1 << 30); b != maxBuckets-1 {
		t.Errorf("huge k bucket = %d, want clamp to %d", b, maxBuckets-1)
	}
}

// A cold frontier must resolve to the ladder maximum (safe default),
// and stay there until some rung accumulates MinSamples.
func TestResolveSafeDefaultWhenCold(t *testing.T) {
	f := New("hnsw", KnobEf, Config{MinSamples: 8})
	p, trusted := f.Resolve(0.95, 10)
	if trusted || p != f.MaxParam() {
		t.Fatalf("cold Resolve = (%d, %v), want (%d, false)", p, trusted, f.MaxParam())
	}
	// Under-sampled observations must not flip trust.
	f.Observe(10, []Observation{{Param: 32, Recall: 0.99, Comps: 100, Samples: 4}})
	p, trusted = f.Resolve(0.95, 10)
	if trusted || p != f.MaxParam() {
		t.Fatalf("under-sampled Resolve = (%d, %v), want (%d, false)", p, trusted, f.MaxParam())
	}
	f.Observe(10, []Observation{{Param: 32, Recall: 0.99, Comps: 100, Samples: 4}})
	p, trusted = f.Resolve(0.95, 10)
	if !trusted || p != 32 {
		t.Fatalf("warmed Resolve = (%d, %v), want (32, true)", p, trusted)
	}
}

// Resolve must return the cheapest trusted rung that meets the target,
// not just any rung that does.
func TestResolveCheapestMeetingTarget(t *testing.T) {
	f := New("ivfflat", KnobNProbe, Config{MinSamples: 4})
	if f.Knob() != KnobNProbe {
		t.Fatalf("ivfflat knob = %v, want nprobe", f.Knob())
	}
	f.Observe(10, []Observation{
		{Param: 1, Recall: 0.52, Comps: 100, Samples: 8},
		{Param: 4, Recall: 0.81, Comps: 400, Samples: 8},
		{Param: 16, Recall: 0.97, Comps: 1600, Samples: 8},
		{Param: 64, Recall: 0.999, Comps: 6400, Samples: 8},
	})
	if p, ok := f.Resolve(0.95, 10); !ok || p != 16 {
		t.Errorf("Resolve(0.95) = (%d, %v), want (16, true)", p, ok)
	}
	if p, ok := f.Resolve(0.80, 10); !ok || p != 4 {
		t.Errorf("Resolve(0.80) = (%d, %v), want (4, true)", p, ok)
	}
	// Target above everything observed: safe default, untrusted.
	if p, ok := f.Resolve(0.9999, 10); ok || p != 128 {
		t.Errorf("Resolve(0.9999) = (%d, %v), want (128, false)", p, ok)
	}
}

// Buckets are independent: observations at k=10 say nothing about k=100.
func TestBucketIsolation(t *testing.T) {
	f := New("hnsw", KnobEf, Config{MinSamples: 4})
	f.Observe(10, []Observation{{Param: 64, Recall: 0.97, Comps: 500, Samples: 8}})
	if p, ok := f.Resolve(0.95, 10); !ok || p != 64 {
		t.Fatalf("k=10 Resolve = (%d, %v), want (64, true)", p, ok)
	}
	if p, ok := f.Resolve(0.95, 100); ok || p != f.MaxParam() {
		t.Fatalf("k=100 Resolve = (%d, %v), want safe default untrusted", p, ok)
	}
}

// Hysteresis: once resolved at a rung, a cheaper rung whose recall
// only barely grazes the target must not steal the resolution; it
// needs Margin headroom. Upward moves apply immediately.
func TestResolveHysteresis(t *testing.T) {
	f := New("hnsw", KnobEf, Config{MinSamples: 4, Margin: 0.02})
	f.Observe(10, []Observation{
		{Param: 32, Recall: 0.92, Comps: 300, Samples: 8},
		{Param: 64, Recall: 0.97, Comps: 600, Samples: 8},
	})
	if p, ok := f.Resolve(0.95, 10); !ok || p != 64 {
		t.Fatalf("initial Resolve = (%d, %v), want (64, true)", p, ok)
	}
	// Rung 32 drifts up to 0.951 — above target but inside the margin.
	// EWMA with decay 0.5 from 0.92: feed 0.982 to land at 0.951.
	f.Observe(10, []Observation{{Param: 32, Recall: 0.982, Comps: 300, Samples: 8}})
	if p, ok := f.Resolve(0.95, 10); !ok || p != 64 {
		t.Fatalf("graze Resolve = (%d, %v), want hold at (64, true)", p, ok)
	}
	// Rung 32 clears target+margin decisively: move down is allowed.
	f.Observe(10, []Observation{{Param: 32, Recall: 0.999, Comps: 300, Samples: 8}})
	if p, ok := f.Resolve(0.95, 10); !ok || p != 32 {
		t.Fatalf("clear Resolve = (%d, %v), want (32, true)", p, ok)
	}
	// Rung 32 collapses: upward move is immediate, no margin needed.
	f.Observe(10, []Observation{{Param: 32, Recall: 0.2, Comps: 300, Samples: 64}})
	f.Observe(10, []Observation{{Param: 32, Recall: 0.2, Comps: 300, Samples: 64}})
	if p, ok := f.Resolve(0.95, 10); !ok || p != 64 {
		t.Fatalf("collapse Resolve = (%d, %v), want (64, true)", p, ok)
	}
}

func TestBestRecall(t *testing.T) {
	f := New("hnsw", KnobEf, Config{MinSamples: 4})
	if _, ok := f.BestRecall(10); ok {
		t.Fatal("cold BestRecall should be untrusted")
	}
	f.Observe(10, []Observation{
		{Param: 32, Recall: 0.80, Comps: 300, Samples: 8},
		{Param: 512, Recall: 0.91, Comps: 5000, Samples: 8},
	})
	r, ok := f.BestRecall(10)
	if !ok || r < 0.90 || r > 0.92 {
		t.Fatalf("BestRecall = (%v, %v), want (~0.91, true)", r, ok)
	}
}

// EWMA: repeated observations converge the estimate toward the new
// steady state rather than averaging over all history forever.
func TestObserveEWMAConverges(t *testing.T) {
	f := New("hnsw", KnobEf, Config{MinSamples: 1, Decay: 0.5})
	f.Observe(10, []Observation{{Param: 64, Recall: 0.50, Comps: 500, Samples: 8}})
	for i := 0; i < 8; i++ {
		f.Observe(10, []Observation{{Param: 64, Recall: 0.98, Comps: 500, Samples: 8}})
	}
	pts := f.BucketSnapshot(10)
	i := rungIndex(EfLadder, 64)
	if pts[i].Recall < 0.97 {
		t.Fatalf("EWMA recall = %v after 8 passes at 0.98, want > 0.97", pts[i].Recall)
	}
}

// Concurrent Resolve against Observe must be race-free (run under -race).
func TestConcurrentResolveObserve(t *testing.T) {
	f := New("hnsw", KnobEf, Config{MinSamples: 2})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				f.Resolve(0.95, 10)
				f.BestRecall(10)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		f.Observe(10, []Observation{{Param: 32, Recall: 0.96, Comps: 300, Samples: 4}})
	}
	close(stop)
	wg.Wait()
}
