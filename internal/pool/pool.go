// Package pool provides the process-wide bounded worker pool behind
// every parallel fan-out in the engine: intra-query partitioned scans
// (flat row ranges) and the cross-query batch executor all draw
// goroutines from the same token bucket, so batch × intra-query nesting
// composes without oversubscribing the machine.
//
// Two properties make the pool safe to call from anywhere:
//
//   - Non-blocking admission: a task that cannot get a token runs
//     inline on the submitting goroutine. Nested Run calls (a batch
//     worker fanning out its own partitions) therefore never deadlock
//     — under saturation they just degrade to serial execution.
//   - Determinism neutrality: the pool only schedules; how work is
//     partitioned is fixed by the caller from the work and the pool's
//     width, so results never depend on how many tokens happened to be
//     free.
package pool

import (
	"runtime"
	"sync"

	"vdbms/internal/obs"
)

// Pool is a token-bounded goroutine pool.
type Pool struct {
	tokens chan struct{}
}

// New creates a pool running at most size concurrent workers.
// size <= 0 selects GOMAXPROCS.
func New(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	return &Pool{tokens: make(chan struct{}, size)}
}

var defaultPool = New(0)

// Default returns the shared process-wide pool, sized to GOMAXPROCS at
// startup.
func Default() *Pool { return defaultPool }

// Size returns the worker bound.
func (p *Pool) Size() int { return cap(p.tokens) }

// Effective is how many workers a fan-out of tasks uses: the pool's
// width, clamped to [1, tasks] so no partition is ever empty.
func (p *Pool) Effective(tasks int) int {
	return max(min(p.Size(), tasks), 1)
}

// Run executes fn(0..n-1), fanning tasks onto pool workers when tokens
// are available and running them inline otherwise. It returns when all
// n tasks have completed. fn must be safe for concurrent invocation;
// task index identity is the only ordering guarantee.
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	obs.PoolTasks.Add(int64(n))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case p.tokens <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-p.tokens }()
				fn(i)
			}(i)
		default:
			// Saturated: contribute the submitting goroutine instead of
			// queueing, which keeps nested fan-out deadlock-free.
			obs.PoolInline.Inc()
			fn(i)
		}
	}
	wg.Wait()
}

// TryAcquire takes up to n tokens without blocking and returns how many
// it took. A job that keeps workers of its own busy for a long time holds
// them, so that concurrent fan-outs see those workers as taken, and gives
// them back with Release.
func (p *Pool) TryAcquire(n int) int {
	for i := 0; i < n; i++ {
		select {
		case p.tokens <- struct{}{}:
		default:
			return i
		}
	}
	return max(n, 0)
}

// Release gives back n tokens taken by TryAcquire.
func (p *Pool) Release(n int) {
	for range n {
		<-p.tokens
	}
}

// Split partitions n items into w contiguous ranges of near-equal
// size and returns the start offsets (len w+1, offsets[w] == n). The
// partition depends only on (n, w), never on scheduling, so callers
// get identical per-worker inputs for a given worker count.
func Split(n, w int) []int {
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	offsets := make([]int, w+1)
	for i := 0; i <= w; i++ {
		offsets[i] = i * n / w
	}
	return offsets
}
