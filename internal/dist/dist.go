// Package dist implements distributed search (Section 2.3(2)): the
// collection is partitioned across shards, each shard hosts an
// ordinary vdbms.Collection over its rows, and queries are answered by
// scatter-gather with a top-k merge. Because a shard is the same
// collection engine a single node runs, everything a request carries
// — filters, metric, plan forcing, knobs, target recall, per-block
// cancellation — reaches every shard unchanged. Partitioning is either
// random (uniform load) or index-guided (k-means cluster per shard),
// and index-guided routing lets a query probe only the shards whose
// centroids are closest, shrinking fan-out. A net/rpc transport
// (rpc.go) runs shards as separate processes.
//
// The read path is fault-tolerant: every search carries a
// context.Context deadline, each shard call can get a sub-deadline
// and retries (internal/fault), and a scatter-gather that loses some
// shards degrades to a partial result — the merged top-k over the
// shards that answered plus a Partial report naming the ones that did
// not — instead of failing the whole query.
package dist

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"vdbms"
	"vdbms/internal/fault"
	"vdbms/internal/kmeans"
	"vdbms/internal/obs"
	"vdbms/internal/topk"
)

// Stage-latency handles for the scatter-gather stages, bound once
// (see the matching set in internal/executor).
var (
	stageFanout = obs.SearchStageSeconds.With("shard_fanout")
	stageMerge  = obs.SearchStageSeconds.With("topk_merge")
)

// Shard answers top-k queries over its partition, returning global
// vector ids. Implementations must honor ctx cancellation: a shard
// that cannot answer before the deadline returns ctx.Err().
type Shard interface {
	Search(ctx context.Context, req vdbms.SearchRequest) ([]topk.Result, error)
	Count() int
}

// LocalShard serves one partition from an in-process collection plus
// its local-to-global id mapping.
type LocalShard struct {
	col *vdbms.Collection
	ids []int64 // local id -> global id; nil when they coincide
}

// NewLocalShard wraps col; globalIDs[i] is the global id of the
// collection's row i (nil keeps the collection's own ids).
func NewLocalShard(col *vdbms.Collection, globalIDs []int64) *LocalShard {
	return &LocalShard{col: col, ids: globalIDs}
}

// Count implements Shard: the live rows of the partition.
func (s *LocalShard) Count() int { return s.col.Len() }

// Search implements Shard by running the request on the hosted
// collection under ctx, then mapping hit ids to global ids. An empty
// partition answers with no hits.
func (s *LocalShard) Search(ctx context.Context, req vdbms.SearchRequest) ([]topk.Result, error) {
	if err := checkShardable(req); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.col.Len() == 0 {
		return nil, nil
	}
	res, err := s.col.SearchContext(ctx, req)
	if err != nil {
		return nil, err
	}
	if s.ids == nil {
		return res.Hits, nil
	}
	out := make([]topk.Result, len(res.Hits))
	for i, h := range res.Hits {
		if h.ID < 0 || h.ID >= int64(len(s.ids)) {
			return nil, fmt.Errorf("dist: shard hit id %d outside its %d rows", h.ID, len(s.ids))
		}
		out[i] = topk.Result{ID: s.ids[h.ID], Dist: h.Dist}
	}
	return out, nil
}

// checkShardable rejects what a shard cannot answer in global terms:
// a multi-vector request, whose hits are entity ids aggregated over the
// rows one shard holds (merging per-shard partial aggregates as
// complete scores would be wrong), and a page cursor, whose id is a
// global one a shard would rank against its local ids.
func checkShardable(req vdbms.SearchRequest) error {
	if len(req.Vectors) > 0 || req.EntityColumn != "" {
		return fmt.Errorf("dist: multi-vector search is not supported across shards")
	}
	if req.After != nil {
		return fmt.Errorf("dist: paging with After is not supported across shards")
	}
	return nil
}

// Partition assigns each of n rows to one of p parts.
type Partition struct {
	Assign []int // row -> part
	Parts  int
	// Centroids is non-nil for index-guided partitioning: row-major
	// Parts x Dim, enabling routed search.
	Centroids *kmeans.Result
}

// PartitionRandom spreads rows uniformly at random.
func PartitionRandom(n, parts int, seed int64) Partition {
	rng := rand.New(rand.NewSource(seed))
	a := make([]int, n)
	for i := range a {
		a[i] = rng.Intn(parts)
	}
	return Partition{Assign: a, Parts: parts}
}

// PartitionClustered groups rows by k-means cluster, the index-guided
// policy ("placing all vectors in the same bucket into the same
// partition").
func PartitionClustered(data []float32, n, d, parts int, seed int64) (Partition, error) {
	res, err := kmeans.Train(data, n, d, kmeans.Config{K: parts, Seed: seed, MaxIter: 15})
	if err != nil {
		return Partition{}, err
	}
	a := make([]int, n)
	copy(a, res.Assign)
	return Partition{Assign: a, Parts: res.K, Centroids: res}, nil
}

// BuildShards materializes partition p of n rows as one in-memory
// collection per part. Row i's vector is data[i*schema.Dim:] and its
// attributes attrs[i] (attrs may be nil when the schema has none); it
// keeps its row number as global id. Every non-empty part is indexed
// with CreateIndex(kind, opts) unless kind is empty; an empty part
// stays an empty shard that answers with no hits.
func BuildShards(schema vdbms.Schema, data []float32, attrs []map[string]any, p Partition, kind string, opts map[string]int) ([]Shard, error) {
	d := schema.Dim
	local := make([]*LocalShard, p.Parts)
	db := vdbms.New()
	for i := range local {
		col, err := db.CreateCollection("part"+strconv.Itoa(i), schema)
		if err != nil {
			return nil, err
		}
		local[i] = NewLocalShard(col, []int64{})
	}
	for row, part := range p.Assign {
		var a map[string]any
		if attrs != nil {
			a = attrs[row]
		}
		sh := local[part]
		if _, err := sh.col.Insert(data[row*d:(row+1)*d], a); err != nil {
			return nil, fmt.Errorf("dist: row %d: %w", row, err)
		}
		sh.ids = append(sh.ids, int64(row))
	}
	shards := make([]Shard, len(local))
	for i, sh := range local {
		shards[i] = sh
		if kind == "" || sh.col.Len() == 0 {
			continue
		}
		if err := sh.col.CreateIndex(kind, opts); err != nil {
			return nil, fmt.Errorf("dist: shard %d: %w", i, err)
		}
	}
	return shards, nil
}

// ShardError records one shard that failed to answer a scatter-gather
// query. Err carries the message (string, not error, so a Partial
// report serializes cleanly over JSON).
type ShardError struct {
	Shard int    `json:"shard"`
	Err   string `json:"error"`
}

// Partial reports how completely a scatter-gather query covered its
// target shards. Failed is empty for a complete answer.
type Partial struct {
	// Targeted is how many shards the query was fanned out to.
	Targeted int `json:"targeted"`
	// Answered lists the shard indices (ascending) that contributed
	// results to the merge.
	Answered []int `json:"answered"`
	// Failed lists the shards (ascending) that errored, timed out, or
	// were still pending when the query deadline hit.
	Failed []ShardError `json:"failed,omitempty"`
}

// Complete reports whether every targeted shard answered.
func (p Partial) Complete() bool { return len(p.Failed) == 0 }

// FailedShards returns the failed shard indices.
func (p Partial) FailedShards() []int {
	out := make([]int, len(p.Failed))
	for i, f := range p.Failed {
		out[i] = f.Shard
	}
	return out
}

// Router scatter-gathers across shards.
type Router struct {
	shards       []Shard
	centroids    *kmeans.Result // optional, for routed search
	shardTimeout time.Duration
	retrier      *fault.Retrier
	minAnswered  int
	breakerCfg   *fault.BreakerConfig
	breakers     []*fault.Breaker // per shard, nil without WithShardBreakers
}

// RouterOption configures fault-tolerance knobs on a Router.
type RouterOption func(*Router)

// WithShardTimeout bounds each per-shard call with a sub-deadline (in
// addition to the query's own context deadline). Retries share the
// same per-shard budget, so one slow replica cannot consume the whole
// query deadline.
func WithShardTimeout(d time.Duration) RouterOption {
	return func(r *Router) { r.shardTimeout = d }
}

// WithRetrier retries failed shard calls with rt's backoff policy.
func WithRetrier(rt *fault.Retrier) RouterOption {
	return func(r *Router) { r.retrier = rt }
}

// WithMinAnswered sets how many shards must answer before a
// scatter-gather is considered a (possibly partial) success; below
// the floor the query errors. Default 1. Set to the shard count to
// restore fail-stop all-or-nothing behavior.
func WithMinAnswered(n int) RouterOption {
	return func(r *Router) { r.minAnswered = n }
}

// WithShardBreakers guards each shard with its own circuit breaker:
// a shard whose calls keep failing (after retries) is skipped —
// charged to the Partial report as circuit-open — until the cooldown
// admits a half-open probe. Transitions feed the obs breaker counters
// and the per-shard breaker-state gauge.
func WithShardBreakers(cfg fault.BreakerConfig) RouterOption {
	return func(r *Router) { r.breakerCfg = &cfg }
}

// NewRouter wires shards; centroids may be nil (always full fan-out).
func NewRouter(shards []Shard, centroids *kmeans.Result, opts ...RouterOption) *Router {
	r := &Router{shards: shards, centroids: centroids, minAnswered: 1}
	for _, o := range opts {
		o(r)
	}
	if r.minAnswered < 1 {
		r.minAnswered = 1
	}
	if r.breakerCfg != nil {
		r.breakers = make([]*fault.Breaker, len(shards))
		for i := range r.breakers {
			cfg := *r.breakerCfg
			gauge := obs.ShardBreakerState.With(strconv.Itoa(i))
			gauge.Set(float64(fault.Closed))
			prev := cfg.OnStateChange
			cfg.OnStateChange = func(from, to fault.State) {
				gauge.Set(float64(to))
				obs.BreakerTransitions.With(to.String()).Inc()
				if prev != nil {
					prev(from, to)
				}
			}
			r.breakers[i] = fault.NewBreaker(cfg)
		}
	}
	return r
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// BreakerStates is implemented by shards that front their own
// breakers (ReplicaSet), letting the router and the health endpoint
// see through to replica-level state.
type BreakerStates interface {
	BreakerStates() []fault.State
}

// ShardStates reports one breaker position per shard for the health
// endpoint: the router-level breaker when WithShardBreakers is
// configured; otherwise, for shards that are themselves replica sets,
// "open" only when every replica's breaker is open; "closed" for
// shards with no breaker at all.
func (r *Router) ShardStates() []string {
	out := make([]string, len(r.shards))
	for i, s := range r.shards {
		switch {
		case r.breakers != nil:
			out[i] = r.breakers[i].State().String()
		default:
			if bs, ok := s.(BreakerStates); ok {
				allOpen := true
				for _, st := range bs.BreakerStates() {
					if st != fault.Open {
						allOpen = false
						break
					}
				}
				if allOpen {
					out[i] = fault.Open.String()
				} else {
					out[i] = fault.Closed.String()
				}
				continue
			}
			out[i] = fault.Closed.String()
		}
	}
	return out
}

// Search fans req out and merges the top-k. probes > 0 routes it to
// the probes shards whose centroids are nearest req.Vector (only with
// index-guided partitioning; otherwise, or with probes <= 0, every
// shard is targeted). When some shards fail or time out it degrades
// gracefully: the merged top-k over the shards that answered is
// returned together with a Partial report naming the failures. An
// error is returned only when fewer than the configured minimum of
// shards answered. Multi-vector requests and page cursors (After) are
// rejected; a range (Radius) merges like any top-k.
func (r *Router) Search(ctx context.Context, req vdbms.SearchRequest, probes int) ([]topk.Result, Partial, error) {
	if req.K <= 0 {
		return nil, Partial{}, fmt.Errorf("dist: k must be positive, got %d", req.K)
	}
	if err := checkShardable(req); err != nil {
		return nil, Partial{}, err
	}
	var subset []int
	if r.centroids != nil && probes > 0 && probes < len(r.shards) {
		if len(req.Vector) != r.centroids.Dim {
			return nil, Partial{}, fmt.Errorf("dist: routed query has dim %d, centroids have %d", len(req.Vector), r.centroids.Dim)
		}
		subset = r.centroids.NearestN(req.Vector, probes)
	}
	return r.searchShards(ctx, req, subset)
}

// searchOne runs a single shard call under the per-shard sub-deadline,
// retry policy, and (when configured) circuit breaker. The full call
// — retries included — is timed into the per-shard latency histogram;
// retry attempts beyond the first feed the retry counter.
func (r *Router) searchOne(ctx context.Context, si int, req vdbms.SearchRequest) ([]topk.Result, error) {
	var b *fault.Breaker
	if r.breakers != nil {
		b = r.breakers[si]
		if !b.Allow() {
			return nil, fault.ErrOpen
		}
	}
	start := time.Now()
	res, err := r.searchOneInner(ctx, si, req)
	obs.DistShardLatency.With(strconv.Itoa(si)).Observe(time.Since(start).Seconds())
	if b != nil {
		switch {
		case err == nil:
			b.OnSuccess()
		case ctx.Err() != nil:
			// The query deadline hit; that says nothing about shard
			// health, so the breaker is not charged.
		default:
			b.OnFailure()
		}
	}
	return res, err
}

func (r *Router) searchOneInner(ctx context.Context, si int, req vdbms.SearchRequest) ([]topk.Result, error) {
	if r.shardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.shardTimeout)
		defer cancel()
	}
	if r.retrier == nil {
		return r.shards[si].Search(ctx, req)
	}
	var res []topk.Result
	attempts := 0
	err := r.retrier.Do(ctx, func(c context.Context) error {
		attempts++
		rr, e := r.shards[si].Search(c, req)
		if e == nil {
			res = rr
		}
		return e
	})
	if attempts > 1 {
		obs.DistRetries.Add(int64(attempts - 1))
	}
	return res, err
}

func (r *Router) searchShards(ctx context.Context, req vdbms.SearchRequest, subset []int) ([]topk.Result, Partial, error) {
	obs.DistSearches.Inc()
	targets := subset
	if targets == nil {
		targets = make([]int, len(r.shards))
		for i := range targets {
			targets[i] = i
		}
	}
	fanoutStart := time.Now()
	type shardOut struct {
		pos int
		res []topk.Result
		err error
	}
	ch := make(chan shardOut, len(targets))
	for i, si := range targets {
		go func(pos, si int) {
			res, err := r.searchOne(ctx, si, req)
			ch <- shardOut{pos, res, err}
		}(i, si)
	}

	c := topk.NewCollector(req.K)
	p := Partial{Targeted: len(targets)}
	pending := make(map[int]bool, len(targets))
	for i := range targets {
		pending[i] = true
	}
	var lastErr error
	// Gather until every shard reports or the query deadline hits.
	// Shards still pending at the deadline are charged to the Partial
	// report; their goroutines drain into the buffered channel.
	for len(pending) > 0 {
		select {
		case o := <-ch:
			delete(pending, o.pos)
			if o.err != nil {
				lastErr = o.err
				obs.DistShardFailures.With(strconv.Itoa(targets[o.pos])).Inc()
				p.Failed = append(p.Failed, ShardError{Shard: targets[o.pos], Err: o.err.Error()})
				continue
			}
			p.Answered = append(p.Answered, targets[o.pos])
			for _, res := range o.res {
				c.Push(res.ID, res.Dist)
			}
		case <-ctx.Done():
			lastErr = ctx.Err()
			for pos := range pending {
				obs.DistShardFailures.With(strconv.Itoa(targets[pos])).Inc()
				p.Failed = append(p.Failed, ShardError{Shard: targets[pos], Err: ctx.Err().Error()})
			}
			pending = nil
		}
	}
	stageFanout.Observe(time.Since(fanoutStart).Seconds())
	mergeStart := time.Now()
	defer func() { stageMerge.Observe(time.Since(mergeStart).Seconds()) }()
	sort.Ints(p.Answered)
	sort.Slice(p.Failed, func(i, j int) bool { return p.Failed[i].Shard < p.Failed[j].Shard })
	if !p.Complete() {
		obs.DistPartial.Inc()
	}
	if len(p.Answered) < r.minAnswered {
		return nil, p, fmt.Errorf("dist: %d/%d shards answered (need %d): %w",
			len(p.Answered), p.Targeted, r.minAnswered, lastErr)
	}
	return c.Results(), p, nil
}

// FanOut reports how many shards a routed query touches (experiment
// metric for E11).
func (r *Router) FanOut(probes int) int {
	if r.centroids == nil || probes <= 0 || probes >= len(r.shards) {
		return len(r.shards)
	}
	return probes
}
