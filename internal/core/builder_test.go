package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/vec"
)

// The counting test index: every build counts itself in flight and
// records the most builds ever in flight at once; while countGate is
// set, a build announces itself on countStarted and parks on the gate.
var (
	countOnce    sync.Once
	countMu      sync.Mutex
	countGate    chan struct{}
	countStarted chan struct{}
	countNow     atomic.Int32
	countMax     atomic.Int32
)

func registerCountIndex() {
	countOnce.Do(func() {
		index.Register(index.Family{Name: "testcount", Metrics: index.AnyMetric, Build: func(data []float32, n, d int, _ vec.Metric, _ map[string]int) (index.Index, error) {
			now := countNow.Add(1)
			defer countNow.Add(-1)
			for m := countMax.Load(); now > m && !countMax.CompareAndSwap(m, now); m = countMax.Load() {
			}
			countMu.Lock()
			gate, started := countGate, countStarted
			countMu.Unlock()
			if gate != nil {
				select {
				case started <- struct{}{}:
				default:
				}
				<-gate
			}
			return index.NewFlat(data, n, d, nil)
		}})
	})
}

// armCount makes the next testcount builds park; the returned function
// disarms the gate and lets every parked build go (idempotent).
func armCount() (started chan struct{}, release func()) {
	countMu.Lock()
	defer countMu.Unlock()
	countGate, countStarted = make(chan struct{}), make(chan struct{}, 1)
	gate := countGate
	return countStarted, sync.OnceFunc(func() {
		countMu.Lock()
		countGate, countStarted = nil, nil
		countMu.Unlock()
		close(gate)
	})
}

// goCreateIndex runs CreateIndex on its own goroutine and returns once
// the call has recorded its recipe (the build epoch moved), with the
// channel its result arrives on.
func goCreateIndex(t *testing.T, c *Collection, kind string, opts map[string]int) <-chan error {
	t.Helper()
	c.mu.Lock()
	e0 := c.buildEpoch
	c.mu.Unlock()
	out := make(chan error, 1)
	go func() { out <- c.CreateIndex(kind, opts) }()
	for {
		c.mu.Lock()
		moved := c.buildEpoch != e0
		c.mu.Unlock()
		if moved {
			return out
		}
		runtime.Gosched()
	}
}

// TestOneBuildInFlight: every index build of a collection runs on its
// one builder. A CreateIndex racing a parked staleness rebuild, a drift
// swap or another CreateIndex waits for it instead of building beside
// it, so the counting index never sees two builds of the collection at
// once; each call returns its own build's error (index.ErrOption for a
// refused recipe), or nil when a later recipe superseded it.
func TestOneBuildInFlight(t *testing.T) {
	registerCountIndex()
	const rows = 200
	ds := dataset.Clustered(rows, 8, 4, 0.4, 1)
	fresh := func(t *testing.T, kind string) *Collection {
		t.Helper()
		c, err := NewCollection("one", Schema{Dim: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		for i := 0; i < rows; i++ {
			if _, err := c.Insert(ds.Row(i), nil); err != nil {
				t.Fatal(err)
			}
		}
		if kind != "" {
			if err := c.CreateIndex(kind, nil); err != nil { // gate disarmed: instant
				t.Fatal(err)
			}
		}
		countMax.Store(0)
		return c
	}
	installed := func(t *testing.T, c *Collection, kind string, covers int) {
		t.Helper()
		c.WaitForIndex()
		if got, covered, _ := c.IndexInfo(); got != kind || covered != covers {
			t.Fatalf("index %q over %d rows, want %q over %d", got, covered, kind, covers)
		}
		if m := countMax.Load(); m != 1 {
			t.Fatalf("%d builds of the collection in flight at once, want 1", m)
		}
	}

	t.Run("staleness rebuild", func(t *testing.T) {
		c := fresh(t, "testcount")
		started, release := armCount()
		defer release()
		for i := 0; i < 45; i++ { // the 41st update crosses 0.2·200
			if err := c.UpdateVector(int64(i), ds.Row((i+7)%rows)); err != nil {
				t.Fatal(err)
			}
		}
		<-started
		created := goCreateIndex(t, c, "testcount", nil)
		release()
		if err := <-created; err != nil {
			t.Fatal(err)
		}
		installed(t, c, "testcount", rows)
	})

	t.Run("drift swap", func(t *testing.T) {
		c := fresh(t, "flat")
		started, release := armCount()
		defer release()
		if !c.swapIndex("test", "testcount", nil) {
			t.Fatal("swap did not start")
		}
		<-started
		created := goCreateIndex(t, c, "testcount", nil)
		release()
		if err := <-created; err != nil {
			t.Fatal(err)
		}
		installed(t, c, "testcount", rows)
	})

	t.Run("second CreateIndex", func(t *testing.T) {
		c := fresh(t, "")
		started, release := armCount()
		defer release()
		first := goCreateIndex(t, c, "testcount", nil)
		<-started
		second := goCreateIndex(t, c, "testcount", nil)
		release()
		if err := <-first; err != nil {
			t.Fatalf("superseded CreateIndex: %v, want nil", err)
		}
		if err := <-second; err != nil {
			t.Fatal(err)
		}
		installed(t, c, "testcount", rows)
	})

	t.Run("refused recipe", func(t *testing.T) {
		c := fresh(t, "")
		started, release := armCount()
		defer release()
		first := goCreateIndex(t, c, "testcount", nil)
		<-started
		refused := goCreateIndex(t, c, "hnsw", map[string]int{"m": -5})
		release()
		if err := <-first; err != nil {
			t.Fatalf("superseded CreateIndex: %v, want nil", err)
		}
		if err := <-refused; !errors.Is(err, index.ErrOption) {
			t.Fatalf("refused recipe: %v, want index.ErrOption", err)
		}
		// The recipe reverts to what was installed before either call:
		// none.
		installed(t, c, "", 0)
	})
}
