package pool

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunExecutesAllTasks(t *testing.T) {
	p := New(4)
	var hits [100]int32
	p.Run(len(hits), func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("task %d ran %d times", i, h)
		}
	}
}

func TestRunZeroAndOne(t *testing.T) {
	p := New(2)
	p.Run(0, func(int) { t.Fatal("fn called for n=0") })
	ran := false
	p.Run(1, func(i int) { ran = i == 0 })
	if !ran {
		t.Fatal("single task not run inline")
	}
}

// Nested Run calls from inside pool workers must not deadlock even
// when the nesting demand exceeds the token count many times over.
func TestNestedRunDoesNotDeadlock(t *testing.T) {
	p := New(2)
	var total atomic.Int64
	p.Run(8, func(int) {
		p.Run(8, func(int) {
			p.Run(4, func(int) { total.Add(1) })
		})
	})
	if got := total.Load(); got != 8*8*4 {
		t.Fatalf("nested tasks ran %d times, want %d", got, 8*8*4)
	}
}

func TestConcurrencyBounded(t *testing.T) {
	p := New(3)
	var cur, max atomic.Int64
	var mu sync.Mutex
	p.Run(64, func(int) {
		n := cur.Add(1)
		mu.Lock()
		if n > max.Load() {
			max.Store(n)
		}
		mu.Unlock()
		cur.Add(-1)
	})
	// Pool workers plus the submitting goroutine running inline.
	if m := max.Load(); m > int64(p.Size())+1 {
		t.Fatalf("observed %d concurrent tasks, bound is %d workers + caller", m, p.Size())
	}
}

func TestEffective(t *testing.T) {
	p := New(4)
	cases := []struct{ tasks, want int }{
		{100, 4}, // pool size
		{2, 2},   // clamped to task count
		{0, 1},   // never below 1
		{-5, 1},
	}
	for _, c := range cases {
		if got := p.Effective(c.tasks); got != c.want {
			t.Fatalf("Effective(%d) = %d, want %d", c.tasks, got, c.want)
		}
	}
}

func TestSplit(t *testing.T) {
	for _, c := range []struct {
		n, w int
	}{{10, 3}, {1, 4}, {100, 7}, {5, 5}, {17, 1}} {
		offs := Split(c.n, c.w)
		if offs[0] != 0 || offs[len(offs)-1] != c.n {
			t.Fatalf("Split(%d,%d) = %v: bad bounds", c.n, c.w, offs)
		}
		for i := 1; i < len(offs); i++ {
			if offs[i] < offs[i-1] {
				t.Fatalf("Split(%d,%d) = %v: not monotone", c.n, c.w, offs)
			}
		}
	}
	// Partitions must be non-empty when w <= n.
	offs := Split(10, 3)
	for i := 1; i < len(offs); i++ {
		if offs[i] == offs[i-1] {
			t.Fatalf("Split(10,3) = %v has empty range", offs)
		}
	}
}

func TestDefaultShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must return the same pool")
	}
	if Default().Size() < 1 {
		t.Fatal("default pool must have at least one worker")
	}
}

// TryAcquire takes only the tokens that are free and never blocks; while
// a holder keeps them, Run finds none and runs its tasks inline.
func TestTryAcquireRelease(t *testing.T) {
	p := New(3)
	for _, c := range []struct{ ask, want int }{{-1, 0}, {0, 0}, {2, 2}, {5, 1}, {1, 0}} {
		if got := p.TryAcquire(c.ask); got != c.want {
			t.Fatalf("TryAcquire(%d) = %d, want %d", c.ask, got, c.want)
		}
	}
	ran := 0
	p.Run(4, func(int) { ran++ }) // inline on this goroutine, so no race
	if ran != 4 {
		t.Fatalf("a saturated Run ran %d of 4 tasks", ran)
	}
	p.Release(3)
	if got := p.TryAcquire(3); got != 3 {
		t.Fatalf("%d of 3 tokens free after Release", got)
	}
	p.Release(3)
}
