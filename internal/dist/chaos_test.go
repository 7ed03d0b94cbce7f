package dist

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"vdbms"
	"vdbms/internal/dataset"
	"vdbms/internal/fault"
	"vdbms/internal/obs"
	"vdbms/internal/topk"
)

// Seeded chaos-injection tests for the fault-tolerant read path:
// partial results under shard loss, breaker lifecycle on a failing
// primary, and deadline enforcement against hung shards.

// countingShard counts how many searches reach the wrapped shard.
type countingShard struct {
	inner Shard
	mu    sync.Mutex
	calls int
}

func (c *countingShard) Count() int { return c.inner.Count() }

func (c *countingShard) Search(ctx context.Context, req vdbms.SearchRequest) ([]topk.Result, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.inner.Search(ctx, req)
}

func (c *countingShard) callCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// fakeClock drives breaker cooldowns without real sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// Acceptance scenario 1: with 4 shards and one at 100% error rate,
// the router still returns the correct top-k over the remaining 3
// shards, with a Partial report naming the failed shard.
func TestChaosPartialTopKUnderShardOutage(t *testing.T) {
	ds := dataset.Clustered(2000, 16, 8, 0.4, 1)
	p := PartitionRandom(ds.Count, 4, 7)
	good := buildShards(t, ds, p)

	const downShard = 2
	wired := make([]Shard, 4)
	copy(wired, good)
	wired[downShard] = NewChaosShard(good[downShard], ChaosConfig{ErrorRate: 1, Seed: 11})
	router := NewRouter(wired, nil)

	// Reference: the merge over only the three healthy shards.
	reference := NewRouter([]Shard{good[0], good[1], good[3]}, nil)

	for qi, q := range ds.Queries(10, 0.05, 2) {
		got, part, err := router.Search(context.Background(), knn(q, 10, 100), 0)
		if err != nil {
			t.Fatalf("query %d: partial degradation must not error: %v", qi, err)
		}
		want, refPart, err := reference.Search(context.Background(), knn(q, 10, 100), 0)
		if err != nil || !refPart.Complete() {
			t.Fatalf("reference: %v %+v", err, refPart)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: partial top-k diverges from healthy-shard merge:\n got %v\nwant %v", qi, got, want)
		}
		if part.Complete() || part.Targeted != 4 {
			t.Fatalf("query %d: partial report = %+v", qi, part)
		}
		if !reflect.DeepEqual(part.Answered, []int{0, 1, 3}) {
			t.Fatalf("query %d: answered = %v", qi, part.Answered)
		}
		if !reflect.DeepEqual(part.FailedShards(), []int{downShard}) {
			t.Fatalf("query %d: failed = %+v", qi, part.Failed)
		}
		if part.Failed[0].Err != ErrInjected.Error() {
			t.Fatalf("query %d: failure message = %q", qi, part.Failed[0].Err)
		}
	}
}

// Acceptance scenario 2: a replica set of 3 where the primary errors
// then recovers — the breaker walks closed → open → half-open →
// closed and traffic returns to the primary.
func TestChaosBreakerLifecycleOnReplicaPrimary(t *testing.T) {
	ds := dataset.Uniform(200, 8, 3)
	backend := newLocal(t, ds)
	primary := NewChaosShard(backend, ChaosConfig{ErrorRate: 1, Seed: 5})
	secondary := &countingShard{inner: backend}
	tertiary := &countingShard{inner: backend}

	clk := &fakeClock{t: time.Unix(1000, 0)}
	rs, err := NewReplicaSetWithBreaker(fault.BreakerConfig{
		FailureThreshold: 1,
		SuccessThreshold: 2, // keeps half-open observable for one extra query
		Cooldown:         time.Minute,
		Now:              clk.now,
	}, primary, secondary, tertiary)
	if err != nil {
		t.Fatal(err)
	}
	search := func() {
		t.Helper()
		res, err := rs.Search(context.Background(), knn(ds.Row(7), 1, 50))
		if err != nil {
			t.Fatal(err)
		}
		if res[0].ID != 7 {
			t.Fatalf("result = %v", res)
		}
	}

	if rs.State(0) != fault.Closed {
		t.Fatal("primary must start closed")
	}
	search() // primary errors -> breaker opens -> secondary serves
	if rs.State(0) != fault.Open {
		t.Fatalf("after primary failure: %v, want open", rs.State(0))
	}
	if secondary.callCount() != 1 {
		t.Fatalf("secondary calls = %d", secondary.callCount())
	}

	primary.SetErrorRate(0) // the primary heals
	search()                // cooldown not elapsed: still failed over
	if rs.State(0) != fault.Open || secondary.callCount() != 2 {
		t.Fatalf("within cooldown: state=%v secondary=%d", rs.State(0), secondary.callCount())
	}

	clk.advance(time.Minute)
	search() // half-open probe hits the recovered primary and succeeds
	if rs.State(0) != fault.HalfOpen {
		t.Fatalf("after first probe: %v, want half-open", rs.State(0))
	}
	search() // second probe success closes the breaker
	if rs.State(0) != fault.Closed {
		t.Fatalf("after second probe: %v, want closed", rs.State(0))
	}

	before := secondary.callCount()
	search() // traffic is back on the primary
	if secondary.callCount() != before {
		t.Fatal("closed primary must take traffic back from the secondary")
	}
	if tertiary.callCount() != 0 {
		t.Fatal("tertiary should never have been needed")
	}
}

// Acceptance scenario 3: a hung shard cannot delay a query past its
// context deadline; the hung shard is charged to the Partial report.
func TestChaosDeadlineBoundsHungShard(t *testing.T) {
	ds := dataset.Clustered(800, 8, 4, 0.4, 9)
	p := PartitionRandom(ds.Count, 4, 13)
	good := buildShards(t, ds, p)

	const hungShard = 1
	wired := make([]Shard, 4)
	copy(wired, good)
	wired[hungShard] = NewChaosShard(good[hungShard], ChaosConfig{HangRate: 1, Seed: 2})
	router := NewRouter(wired, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	got, part, err := router.Search(ctx, knn(ds.Row(3), 5, 100), 0)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("three healthy shards answered; want partial success, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("query took %v, deadline was 150ms", elapsed)
	}
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	if !reflect.DeepEqual(part.FailedShards(), []int{hungShard}) {
		t.Fatalf("partial = %+v", part)
	}
	if part.Failed[0].Err != context.DeadlineExceeded.Error() {
		t.Fatalf("hung shard charged with %q", part.Failed[0].Err)
	}

	// Every shard hung: the query errors at the deadline instead of
	// blocking forever.
	allHung := make([]Shard, 4)
	for i := range allHung {
		allHung[i] = NewChaosShard(good[i], ChaosConfig{HangRate: 1, Seed: int64(i + 1)})
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	start = time.Now()
	_, part2, err := NewRouter(allHung, nil).Search(ctx2, knn(ds.Row(3), 5, 100), 0)
	if err == nil || time.Since(start) > 2*time.Second {
		t.Fatalf("all-hung query: err=%v elapsed=%v", err, time.Since(start))
	}
	if len(part2.Failed) != 4 {
		t.Fatalf("all four shards must be charged: %+v", part2)
	}
}

// A per-shard sub-deadline bounds a slow shard even when the caller
// set no deadline of its own.
func TestShardTimeoutWithoutCallerDeadline(t *testing.T) {
	ds := dataset.Uniform(300, 8, 5)
	p := PartitionRandom(ds.Count, 3, 3)
	good := buildShards(t, ds, p)

	wired := make([]Shard, 3)
	copy(wired, good)
	wired[2] = NewChaosShard(good[2], ChaosConfig{HangRate: 1, Seed: 4})
	router := NewRouter(wired, nil, WithShardTimeout(50*time.Millisecond))

	start := time.Now()
	got, part, err := router.Search(context.Background(), knn(ds.Row(0), 3, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("sub-deadline did not bound the hung shard: %v", time.Since(start))
	}
	if len(got) == 0 || !reflect.DeepEqual(part.FailedShards(), []int{2}) {
		t.Fatalf("got=%v partial=%+v", got, part)
	}
}

// Retries inside the per-shard budget recover transient failures with
// no partial degradation at all.
func TestRetrierMasksTransientShardFailure(t *testing.T) {
	ds := dataset.Uniform(300, 8, 7)
	p := PartitionRandom(ds.Count, 3, 5)
	good := buildShards(t, ds, p)

	wired := make([]Shard, 3)
	copy(wired, good)
	wired[1] = NewChaosShard(good[1], ChaosConfig{FailFirst: 2, Seed: 6})
	rt := fault.NewRetrier(fault.RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1})
	router := NewRouter(wired, nil, WithRetrier(rt))

	got, part, err := router.Search(context.Background(), knn(ds.Row(0), 1, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Complete() {
		t.Fatalf("retries should mask a 2-failure transient: %+v", part)
	}
	if got[0].ID != 0 {
		t.Fatalf("got %v", got)
	}
}

// WithMinAnswered restores all-or-nothing semantics when a workload
// cannot tolerate partial answers.
func TestMinAnsweredFloor(t *testing.T) {
	ds := dataset.Uniform(300, 8, 9)
	p := PartitionRandom(ds.Count, 3, 7)
	good := buildShards(t, ds, p)

	wired := make([]Shard, 3)
	copy(wired, good)
	wired[0] = NewChaosShard(good[0], ChaosConfig{ErrorRate: 1, Seed: 8})
	strict := NewRouter(wired, nil, WithMinAnswered(3))
	if _, _, err := strict.Search(context.Background(), knn(ds.Row(0), 1, 100), 0); err == nil {
		t.Fatal("strict router must fail when a shard is down")
	}
	lenient := NewRouter(wired, nil)
	if _, part, err := lenient.Search(context.Background(), knn(ds.Row(0), 1, 100), 0); err != nil || len(part.Answered) != 2 {
		t.Fatalf("lenient router: err=%v partial=%+v", err, part)
	}
}

// okShard answers every query with one fixed hit.
type okShard struct{ n int }

func (s *okShard) Count() int { return s.n }
func (s *okShard) Search(ctx context.Context, _ vdbms.SearchRequest) ([]topk.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return []topk.Result{{ID: 42, Dist: 0.5}}, nil
}

var oneHit = vdbms.SearchRequest{K: 1}

func TestChaosShardDeterministicSchedule(t *testing.T) {
	run := func() []bool {
		cs := NewChaosShard(&okShard{n: 10}, ChaosConfig{ErrorRate: 0.5, Seed: 3})
		outcomes := make([]bool, 40)
		for i := range outcomes {
			_, err := cs.Search(context.Background(), oneHit)
			outcomes[i] = err == nil
		}
		return outcomes
	}
	a, b := run(), run()
	okCount := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must replay the same fault schedule")
		}
		if a[i] {
			okCount++
		}
	}
	if okCount == 0 || okCount == len(a) {
		t.Fatalf("error rate 0.5 produced %d/%d successes", okCount, len(a))
	}
}

func TestChaosShardFailFirstThenHeals(t *testing.T) {
	cs := NewChaosShard(&okShard{n: 10}, ChaosConfig{FailFirst: 2, Seed: 1})
	for i := 0; i < 2; i++ {
		if _, err := cs.Search(context.Background(), oneHit); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d: %v, want ErrInjected", i, err)
		}
	}
	res, err := cs.Search(context.Background(), oneHit)
	if err != nil || len(res) != 1 || res[0].ID != 42 {
		t.Fatalf("after FailFirst drained: %v %v", res, err)
	}
	calls, faults := cs.Stats()
	if calls != 3 || faults != 2 {
		t.Fatalf("stats = %d calls, %d faults", calls, faults)
	}
}

func TestChaosShardHangRespectsDeadline(t *testing.T) {
	cs := NewChaosShard(&okShard{n: 1}, ChaosConfig{HangRate: 1, Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cs.Search(ctx, oneHit)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang returned %v, want deadline exceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("hang outlived its deadline")
	}
}

func TestChaosShardLatencyAndCount(t *testing.T) {
	cs := NewChaosShard(&okShard{n: 7}, ChaosConfig{Latency: 5 * time.Millisecond, LatencyJitter: 5 * time.Millisecond, Seed: 2})
	if cs.Count() != 7 {
		t.Fatal("count must delegate")
	}
	start := time.Now()
	if _, err := cs.Search(context.Background(), oneHit); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("latency injection missing")
	}
	// A deadline shorter than the injected latency cuts the call off.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := cs.Search(ctx, oneHit); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("latency sleep ignored deadline: %v", err)
	}
}

// Router-level breakers: shards that keep failing trip open, the
// per-shard breaker-state gauge follows, and an all-failed query is an
// error whose Partial report still names every casualty.
func TestRouterBreakerStatesAndGauge(t *testing.T) {
	ds := dataset.Uniform(200, 8, 17)
	shards := buildShards(t, ds, PartitionRandom(ds.Count, 2, 7))
	for i := range shards {
		shards[i] = NewChaosShard(shards[i], ChaosConfig{ErrorRate: 1, Seed: int64(i + 1)})
	}
	router := NewRouter(shards, nil, WithShardBreakers(fault.BreakerConfig{
		FailureThreshold: 1,
		Cooldown:         time.Hour, // stays open for the whole test
	}))
	gauge := func(i int) float64 { return obs.ShardBreakerState.With(strconv.Itoa(i)).Value() }
	for i, st := range router.ShardStates() {
		if st != "closed" || gauge(i) != float64(fault.Closed) {
			t.Fatalf("shard %d before failures: state %s gauge %v", i, st, gauge(i))
		}
	}

	_, part, err := router.Search(context.Background(), knn(ds.Row(0), 3, 50), 0)
	if err == nil {
		t.Fatal("every shard failing must be an error")
	}
	if !reflect.DeepEqual(part.FailedShards(), []int{0, 1}) {
		t.Fatalf("partial = %+v", part)
	}
	for i, st := range router.ShardStates() {
		if st != "open" || gauge(i) != float64(fault.Open) {
			t.Fatalf("shard %d after trip: state %s gauge %v", i, st, gauge(i))
		}
	}
	// An open breaker rejects without calling the shard.
	_, part, _ = router.Search(context.Background(), knn(ds.Row(0), 3, 50), 0)
	if part.Failed[0].Err != fault.ErrOpen.Error() {
		t.Fatalf("open breaker charged with %q", part.Failed[0].Err)
	}
}

// A query under chaos moves the partial counter.
func TestTraceUnderChaos(t *testing.T) {
	ds := dataset.Uniform(400, 8, 19)
	shards := buildShards(t, ds, PartitionRandom(ds.Count, 4, 7))
	shards[2] = NewChaosShard(shards[2], ChaosConfig{ErrorRate: 1, Seed: 5})
	router := NewRouter(shards, nil)
	partialBefore := obs.DistPartial.Value()

	if _, _, err := router.Search(context.Background(), knn(ds.Row(0), 5, 50), 0); err != nil {
		t.Fatal(err)
	}
	if got := obs.DistPartial.Value(); got != partialBefore+1 {
		t.Fatalf("vdbms_dist_partial_total = %d, want %d", got, partialBefore+1)
	}
}

// exactShards hosts each of parts random partitions in an exact-scan
// collection, so every answer is the true nearest neighbours.
func exactShards(t *testing.T, ds *dataset.Dataset, parts int) []Shard {
	t.Helper()
	return localShards(t, ds, PartitionRandom(ds.Count, parts, 7), "")
}

// Every shard answering gives the exact top-k and a complete report.
func TestRouterSearchComplete(t *testing.T) {
	ds := dataset.Uniform(400, 8, 1)
	router := NewRouter(exactShards(t, ds, 4), nil)
	if router.NumShards() != 4 {
		t.Fatalf("shards = %d", router.NumShards())
	}
	got, part, err := router.Search(context.Background(), knn(ds.Row(17), 3, 50), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Complete() || part.Targeted != 4 || len(part.Answered) != 4 {
		t.Fatalf("partial = %+v on a complete answer", part)
	}
	if len(got) != 3 || got[0].ID != 17 {
		t.Fatalf("hits = %v", got)
	}
}

// One shard always failing still answers k hits, with a report that
// names only that shard.
func TestRouterPartialDegradation(t *testing.T) {
	ds := dataset.Uniform(400, 8, 3)
	shards := exactShards(t, ds, 4)
	shards[2] = NewChaosShard(shards[2], ChaosConfig{ErrorRate: 1, Seed: 5})
	got, part, err := NewRouter(shards, nil).Search(context.Background(), knn(ds.Row(0), 5, 50), 0)
	if err != nil {
		t.Fatalf("partial loss must not error: %v", err)
	}
	if part.Complete() || !reflect.DeepEqual(part.FailedShards(), []int{2}) {
		t.Fatalf("partial report = %+v", part)
	}
	if len(got) != 5 {
		t.Fatalf("hits = %v", got)
	}
}

// Every shard failing is an error, and the report names them all.
func TestRouterAllShardsDown(t *testing.T) {
	ds := dataset.Uniform(100, 8, 5)
	shards := exactShards(t, ds, 2)
	for i := range shards {
		shards[i] = NewChaosShard(shards[i], ChaosConfig{ErrorRate: 1, Seed: int64(i + 1)})
	}
	_, part, err := NewRouter(shards, nil).Search(context.Background(), knn(ds.Row(0), 5, 50), 0)
	if err == nil {
		t.Fatal("total loss must be an error")
	}
	if len(part.Failed) != 2 {
		t.Fatalf("partial = %+v", part)
	}
}

// A caller deadline tighter than the router's per-shard timeout bounds
// a hung shard: the query returns at the caller's budget, not the
// router's.
func TestRouterCallerDeadlineBeatsShardTimeout(t *testing.T) {
	ds := dataset.Uniform(400, 8, 7)
	shards := exactShards(t, ds, 4)
	shards[1] = NewChaosShard(shards[1], ChaosConfig{HangRate: 1, Seed: 9})
	router := NewRouter(shards, nil, WithShardTimeout(10*time.Second))

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	got, part, err := router.Search(ctx, knn(ds.Row(0), 5, 50), 0)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hung shard stalled the query for %v past a 100ms budget", elapsed)
	}
	if err != nil || len(got) != 5 {
		t.Fatalf("hung-shard search: %v, %d hits", err, len(got))
	}
	if !reflect.DeepEqual(part.FailedShards(), []int{1}) {
		t.Fatalf("partial = %+v", part)
	}
}
