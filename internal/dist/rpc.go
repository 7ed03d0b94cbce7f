package dist

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"sync"
	"time"

	"vdbms"
	"vdbms/internal/topk"
)

// RPC transport: a shard served over net/rpc so experiments (and the
// vdbms-shard binary) can run shards as separate processes, the
// disaggregated deployment of Section 2.3(2).
//
// The request on the wire is the collection's own SearchRequest, so a
// remote shard runs exactly what a local one would. Deadlines
// propagate end to end: the client encodes its context's remaining
// budget into the request in nanoseconds (a sub-millisecond budget
// still reaches the shard), the server re-derives a context from it,
// and the client additionally abandons the in-flight call the moment
// its own context is done (net/rpc multiplexes calls by
// sequence number, so an abandoned call does not poison the
// connection).

// SearchArgs is the RPC request.
type SearchArgs struct {
	Req vdbms.SearchRequest
	// TimeoutNanos carries the caller's remaining deadline budget so
	// the server can stop working on a query nobody is waiting for.
	// 0 means no deadline.
	TimeoutNanos int64
}

// SearchReply is the RPC response.
type SearchReply struct {
	Results []topk.Result
}

// ShardService exposes a Shard over net/rpc and tracks in-flight
// calls so a server can drain before shutting down. Counting happens
// in drainCodec, not the methods: net/rpc writes the response after
// the method returns, so a call is only "done" once its reply is
// flushed. (A WaitGroup cannot track this: rpc handlers Add from a
// zero counter while Shutdown Waits, which WaitGroup forbids — a
// condition variable does not.)
type ShardService struct {
	shard    Shard
	mu       sync.Mutex
	cond     *sync.Cond
	inflight int
}

func (s *ShardService) begin() {
	s.mu.Lock()
	if s.cond == nil {
		s.cond = sync.NewCond(&s.mu)
	}
	s.inflight++
	s.mu.Unlock()
}

func (s *ShardService) end() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 && s.cond != nil {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// waitDrained blocks until no calls are in flight.
func (s *ShardService) waitDrained() {
	s.mu.Lock()
	if s.cond == nil {
		s.cond = sync.NewCond(&s.mu)
	}
	for s.inflight > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Search implements the RPC method.
func (s *ShardService) Search(args *SearchArgs, reply *SearchReply) error {
	ctx := context.Background()
	if args.TimeoutNanos > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(args.TimeoutNanos))
		defer cancel()
	}
	res, err := s.shard.Search(ctx, args.Req)
	if err != nil {
		return err
	}
	reply.Results = res
	return nil
}

// CountArgs is the empty request for Count.
type CountArgs struct{}

// CountReply carries the shard size.
type CountReply struct{ N int }

// Count implements the RPC method.
func (s *ShardService) Count(_ *CountArgs, reply *CountReply) error {
	reply.N = s.shard.Count()
	return nil
}

// gobCodec is the standard gob-over-stream rpc.ServerCodec
// (equivalent to what rpc.ServeConn uses internally, which is not
// exported); we need our own so drainCodec can wrap it.
type gobCodec struct {
	rwc    io.ReadWriteCloser
	dec    *gob.Decoder
	enc    *gob.Encoder
	encBuf *bufio.Writer
	closed bool
}

func newGobCodec(conn io.ReadWriteCloser) *gobCodec {
	buf := bufio.NewWriter(conn)
	return &gobCodec{rwc: conn, dec: gob.NewDecoder(conn), enc: gob.NewEncoder(buf), encBuf: buf}
}

func (c *gobCodec) ReadRequestHeader(r *rpc.Request) error { return c.dec.Decode(r) }
func (c *gobCodec) ReadRequestBody(body any) error         { return c.dec.Decode(body) }

func (c *gobCodec) WriteResponse(r *rpc.Response, body any) error {
	if err := c.enc.Encode(r); err != nil {
		return err
	}
	if err := c.enc.Encode(body); err != nil {
		return err
	}
	return c.encBuf.Flush()
}

func (c *gobCodec) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.rwc.Close()
}

// drainCodec counts a call as in flight from the moment its request
// header is read until its response has been written and flushed —
// the only window in which tearing down the connection could lose a
// reply. net/rpc issues exactly one WriteResponse per successfully
// read header (even for invalid requests), so begin/end pair up.
type drainCodec struct {
	rpc.ServerCodec
	svc *ShardService
}

func (c *drainCodec) ReadRequestHeader(r *rpc.Request) error {
	err := c.ServerCodec.ReadRequestHeader(r)
	if err == nil {
		c.svc.begin()
	}
	return err
}

func (c *drainCodec) WriteResponse(r *rpc.Response, body any) error {
	err := c.ServerCodec.WriteResponse(r, body)
	c.svc.end()
	return err
}

// ShardServer serves a Shard over net/rpc with graceful shutdown:
// Shutdown stops accepting, waits for in-flight calls to drain
// (bounded by its context), then closes lingering connections.
type ShardServer struct {
	rpc *rpc.Server
	svc *ShardService

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool
}

// NewShardServer registers shard on a fresh rpc.Server.
func NewShardServer(shard Shard) (*ShardServer, error) {
	svc := &ShardService{shard: shard}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Shard", svc); err != nil {
		return nil, err
	}
	return &ShardServer{rpc: srv, svc: svc, conns: map[net.Conn]struct{}{}}, nil
}

// Serve accepts connections on l until the listener closes. It
// returns immediately; callers may Serve multiple listeners.
func (s *ShardServer) Serve(l net.Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			go func() {
				s.rpc.ServeCodec(&drainCodec{ServerCodec: newGobCodec(conn), svc: s.svc})
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
		}
	}()
}

// Shutdown closes the listeners, waits until in-flight calls finish
// or ctx is done (returning ctx.Err() in that case), then tears down
// remaining connections. It is safe to call once.
func (s *ShardServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for _, l := range s.listeners {
		l.Close()
	}
	s.listeners = nil
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.svc.waitDrained()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.conns = map[net.Conn]struct{}{}
	s.mu.Unlock()
	return err
}

// ServeShard registers the shard on a fresh rpc.Server and serves the
// listener until it closes. It returns immediately; callers own the
// listener lifecycle. For drain-on-shutdown semantics use
// NewShardServer directly.
func ServeShard(l net.Listener, shard Shard) error {
	srv, err := NewShardServer(shard)
	if err != nil {
		return err
	}
	srv.Serve(l)
	return nil
}

// RPCShard is a Shard client backed by a net/rpc connection.
type RPCShard struct {
	client *rpc.Client
	n      int
}

// DialShard connects to a ServeShard endpoint.
func DialShard(addr string) (*RPCShard, error) {
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: dial %s: %w", addr, err)
	}
	var cr CountReply
	if err := client.Call("Shard.Count", &CountArgs{}, &cr); err != nil {
		client.Close()
		return nil, fmt.Errorf("dist: count %s: %w", addr, err)
	}
	return &RPCShard{client: client, n: cr.N}, nil
}

// Close tears down the connection.
func (s *RPCShard) Close() error { return s.client.Close() }

// Count implements Shard.
func (s *RPCShard) Count() int { return s.n }

// Search implements Shard. The context's remaining deadline is
// shipped to the server, and the call is abandoned client-side the
// moment ctx is done — a hung or slow shard cannot hold the caller
// past its deadline.
func (s *RPCShard) Search(ctx context.Context, req vdbms.SearchRequest) ([]topk.Result, error) {
	args := &SearchArgs{Req: req}
	if dl, ok := ctx.Deadline(); ok {
		left := time.Until(dl)
		if left <= 0 {
			return nil, context.DeadlineExceeded
		}
		args.TimeoutNanos = int64(left)
	}
	var reply SearchReply
	call := s.client.Go("Shard.Search", args, &reply, make(chan *rpc.Call, 1))
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case done := <-call.Done:
		if done.Error != nil {
			return nil, done.Error
		}
		return reply.Results, nil
	}
}
