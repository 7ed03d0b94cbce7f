package dist

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"vdbms"
	"vdbms/internal/dataset"
	"vdbms/internal/topk"
)

// serveOn starts a ShardServer for shard on a loopback listener and
// returns a connected client plus the server handle.
func serveOn(t *testing.T, shard Shard) (*RPCShard, *ShardServer) {
	t.Helper()
	srv, err := NewShardServer(shard)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv.Serve(l)
	client, err := DialShard(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, srv
}

// errShard always fails its searches with a fixed message.
type errShard struct{ n int }

func (e *errShard) Count() int { return e.n }
func (e *errShard) Search(context.Context, vdbms.SearchRequest) ([]topk.Result, error) {
	return nil, errors.New("shard exploded")
}

// slowShard sleeps for a fixed wall-clock delay, deliberately
// ignoring its context — a worst-case unresponsive server.
type slowShard struct {
	inner Shard
	delay time.Duration
}

func (s *slowShard) Count() int { return s.inner.Count() }
func (s *slowShard) Search(ctx context.Context, req vdbms.SearchRequest) ([]topk.Result, error) {
	time.Sleep(s.delay)
	return s.inner.Search(ctx, req)
}

// deadlineCheckShard asserts the server re-derived a context deadline
// from the client's TimeoutMillis.
type deadlineCheckShard struct{ inner Shard }

func (d *deadlineCheckShard) Count() int { return d.inner.Count() }
func (d *deadlineCheckShard) Search(ctx context.Context, req vdbms.SearchRequest) ([]topk.Result, error) {
	if _, ok := ctx.Deadline(); !ok {
		return nil, errors.New("server context has no deadline")
	}
	return d.inner.Search(ctx, req)
}

func TestRPCRoundTripWithDeadline(t *testing.T) {
	ds := dataset.Uniform(120, 4, 21)
	client, _ := serveOn(t, &deadlineCheckShard{inner: newLocal(t, ds)})
	if client.Count() != 120 {
		t.Fatalf("count = %d", client.Count())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := client.Search(ctx, knn(ds.Row(9), 1, 50))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 9 {
		t.Fatalf("rpc search = %v", res)
	}
}

func TestRPCServerErrorPropagates(t *testing.T) {
	client, _ := serveOn(t, &errShard{n: 5})
	_, err := client.Search(context.Background(), knn([]float32{1}, 1, 10))
	if err == nil || !strings.Contains(err.Error(), "shard exploded") {
		t.Fatalf("err = %v, want server error message", err)
	}
	// The connection survives an errored call.
	if client.Count() != 5 {
		t.Fatal("count after errored search")
	}
}

func TestRPCClientDeadlineExpiry(t *testing.T) {
	ds := dataset.Uniform(60, 4, 23)
	client, _ := serveOn(t, &slowShard{inner: newLocal(t, ds), delay: 400 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Search(ctx, knn(ds.Row(0), 1, 50))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("client waited %v past its 40ms deadline", elapsed)
	}
	// An expired deadline short-circuits without a round trip.
	ctx2, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := client.Search(ctx2, knn(ds.Row(0), 1, 50)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v", err)
	}
	// The multiplexed connection is still usable after abandonment.
	if res, err := client.Search(context.Background(), knn(ds.Row(3), 1, 50)); err != nil || res[0].ID != 3 {
		t.Fatalf("connection poisoned after abandoned call: %v %v", res, err)
	}
}

func TestShardServerShutdownDrains(t *testing.T) {
	ds := dataset.Uniform(60, 4, 25)
	client, srv := serveOn(t, &slowShard{inner: newLocal(t, ds), delay: 150 * time.Millisecond})

	type out struct {
		res []topk.Result
		err error
	}
	inFlight := make(chan out, 1)
	go func() {
		res, err := client.Search(context.Background(), knn(ds.Row(4), 1, 50))
		inFlight <- out{res, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the call reach the server

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	o := <-inFlight
	if o.err != nil || len(o.res) != 1 || o.res[0].ID != 4 {
		t.Fatalf("in-flight call dropped during drain: %v %v", o.res, o.err)
	}
}

func TestShardServerShutdownTimesOutOnStuckCall(t *testing.T) {
	ds := dataset.Uniform(20, 4, 27)
	client, srv := serveOn(t, &slowShard{inner: newLocal(t, ds), delay: 2 * time.Second})
	go client.Search(context.Background(), knn(ds.Row(0), 1, 10)) //nolint:errcheck
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown with stuck call = %v, want deadline exceeded", err)
	}
}

// budgetShard reports the remaining deadline budget each call arrives
// with (-1 when the call carries no deadline).
type budgetShard struct{ seen chan time.Duration }

func (b *budgetShard) Count() int { return 1 }
func (b *budgetShard) Search(ctx context.Context, _ vdbms.SearchRequest) ([]topk.Result, error) {
	left := time.Duration(-1)
	if dl, ok := ctx.Deadline(); ok {
		left = time.Until(dl)
	}
	b.seen <- left
	return nil, nil
}

// A deadline less than a millisecond away is still shipped to the
// shard (as nanoseconds) instead of being refused client-side or
// truncated to zero server-side.
func TestRPCSubMillisecondDeadlineReachesShard(t *testing.T) {
	shard := &budgetShard{seen: make(chan time.Duration, 1)}
	client, _ := serveOn(t, shard)
	ctx, cancel := context.WithTimeout(context.Background(), 900*time.Microsecond)
	defer cancel()
	if _, err := client.Search(ctx, vdbms.SearchRequest{K: 1}); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("search: %v", err)
	}
	select {
	case left := <-shard.seen:
		if left == -1 || left > 900*time.Microsecond {
			t.Fatalf("shard saw budget %v, want a deadline at most 900µs away", left)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a 900µs deadline never reached the shard")
	}
}
