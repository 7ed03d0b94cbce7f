package dist

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"vdbms"
	"vdbms/internal/dataset"
	"vdbms/internal/fault"
	"vdbms/internal/topk"
)

// flakyShard errors for the first failN calls, then serves. Safe for
// concurrent use (the router fans out in goroutines).
type flakyShard struct {
	inner Shard
	mu    sync.Mutex
	failN int
	calls int
}

func (f *flakyShard) Count() int { return f.inner.Count() }

func (f *flakyShard) Search(ctx context.Context, req vdbms.SearchRequest) ([]topk.Result, error) {
	f.mu.Lock()
	f.calls++
	fail := f.calls <= f.failN
	f.mu.Unlock()
	if fail {
		return nil, errors.New("replica down")
	}
	return f.inner.Search(ctx, req)
}

func (f *flakyShard) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// newLocal hosts all of ds, unindexed, in one shard.
func newLocal(t *testing.T, ds *dataset.Dataset) Shard {
	t.Helper()
	return localShards(t, ds, PartitionRandom(ds.Count, 1, 1), "")[0]
}

func TestReplicaSetFailover(t *testing.T) {
	ds := dataset.Uniform(100, 4, 1)
	good := newLocal(t, ds)
	dead := &flakyShard{inner: good, failN: 1 << 30}
	rs, err := NewReplicaSet(dead, good)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rs.Search(context.Background(), knn(ds.Row(5), 1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 5 {
		t.Fatalf("failover result = %v", res)
	}
	if rs.State(0) != fault.Open {
		t.Fatalf("primary breaker = %v, want open", rs.State(0))
	}
	if rs.Healthy() != 1 {
		t.Fatalf("healthy = %d, want 1 (primary tripped)", rs.Healthy())
	}
	if rs.Count() != 100 {
		t.Fatalf("Count via surviving replica = %d", rs.Count())
	}
	// The default policy probes the dead primary again (zero
	// cooldown) but still serves from the secondary.
	if _, err := rs.Search(context.Background(), knn(ds.Row(6), 1, 100)); err != nil {
		t.Fatal(err)
	}
}

// Satellite fix: a set whose replicas are all tripped must not report
// a count of 0 — the data still exists, its replicas are just
// unreachable. The last-known count (seeded at construction) is
// returned instead.
func TestReplicaSetCountLastKnownWhenAllTripped(t *testing.T) {
	ds := dataset.Uniform(50, 4, 3)
	dead := &flakyShard{inner: newLocal(t, ds), failN: 1 << 30}
	rs, err := NewReplicaSetWithBreaker(fault.BreakerConfig{Cooldown: time.Hour}, dead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Search(context.Background(), knn(ds.Row(0), 1, 10)); err == nil {
		t.Fatal("want error while replica is down")
	}
	if rs.Healthy() != 0 {
		t.Fatalf("healthy = %d, want 0", rs.Healthy())
	}
	if got := rs.Count(); got != 50 {
		t.Fatalf("Count with all replicas tripped = %d, want last-known 50", got)
	}
}

func TestReplicaSetBreakerHealsAutomatically(t *testing.T) {
	ds := dataset.Uniform(50, 4, 3)
	// Fails exactly once, then recovers — e.g. a restarted process.
	flaky := &flakyShard{inner: newLocal(t, ds), failN: 1}
	rs, err := NewReplicaSet(flaky)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Search(context.Background(), knn(ds.Row(0), 1, 10)); err == nil {
		t.Fatal("want error while replica is down")
	}
	if rs.State(0) != fault.Open {
		t.Fatalf("breaker = %v, want open", rs.State(0))
	}
	// Zero cooldown: the next search admits a half-open probe, which
	// succeeds and closes the breaker — no MarkHealthy needed.
	res, err := rs.Search(context.Background(), knn(ds.Row(0), 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 0 || rs.State(0) != fault.Closed || rs.Healthy() != 1 {
		t.Fatalf("auto-heal failed: %v state=%v healthy=%d", res, rs.State(0), rs.Healthy())
	}
}

func TestReplicaSetAllOpenReturnsErrOpen(t *testing.T) {
	ds := dataset.Uniform(20, 4, 5)
	dead := &flakyShard{inner: newLocal(t, ds), failN: 1 << 30}
	rs, err := NewReplicaSetWithBreaker(fault.BreakerConfig{Cooldown: time.Hour}, dead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Search(context.Background(), knn(ds.Row(0), 1, 10)); err == nil {
		t.Fatal("want failure")
	}
	// Breaker open, cooldown far away: the set rejects without
	// touching the replica.
	before := dead.callCount()
	_, err = rs.Search(context.Background(), knn(ds.Row(0), 1, 10))
	if !errors.Is(err, fault.ErrOpen) {
		t.Fatalf("err = %v, want ErrOpen", err)
	}
	if dead.callCount() != before {
		t.Fatal("open breaker must not admit calls")
	}
}

func TestReplicaSetHonorsCancellation(t *testing.T) {
	ds := dataset.Uniform(20, 4, 7)
	rs, err := NewReplicaSet(newLocal(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rs.Search(ctx, knn(ds.Row(0), 1, 10)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if rs.State(0) != fault.Closed {
		t.Fatal("caller cancellation must not trip the breaker")
	}
}

func TestReplicaSetValidationAndRouterIntegration(t *testing.T) {
	if _, err := NewReplicaSet(); err == nil {
		t.Fatal("want empty-set error")
	}
	// A router over replica sets behaves like a router over shards.
	ds := dataset.Clustered(400, 8, 4, 0.4, 5)
	p := PartitionRandom(ds.Count, 2, 7)
	shards := make([]Shard, 2)
	for i, primary := range localShards(t, ds, p, "") {
		rs, err := NewReplicaSet(&flakyShard{inner: primary, failN: 1 << 30}, primary)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = rs
	}
	router := NewRouter(shards, nil)
	res, part, err := router.Search(context.Background(), knn(ds.Row(42), 1, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 42 {
		t.Fatalf("routed replica search = %v", res)
	}
	if !part.Complete() {
		t.Fatalf("replica failover must be invisible to the router: %+v", part)
	}
	if rs0 := shards[0].(*ReplicaSet); rs0.Healthy() != 1 {
		t.Fatalf("failover not recorded: %d", rs0.Healthy())
	}
	if shards[0].Count()+shards[1].Count() != ds.Count {
		t.Fatal("counts wrong")
	}
}

func TestReplicaSetMarkHealthyBounds(t *testing.T) {
	ds := dataset.Uniform(10, 2, 9)
	rs, err := NewReplicaSet(newLocal(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	rs.MarkHealthy(-1) // no panic
	rs.MarkHealthy(99) // no panic
	if rs.Healthy() != 1 || rs.State(-1) != fault.Closed {
		t.Fatal("bounds handling wrong")
	}
}
