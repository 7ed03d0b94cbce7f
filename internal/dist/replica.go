package dist

import (
	"context"
	"fmt"
	"sync"

	"vdbms"
	"vdbms/internal/fault"
	"vdbms/internal/obs"
	"vdbms/internal/topk"
)

// Replication (Section 2.3(2): "the vector collection is sharded and
// replicated"): a ReplicaSet fronts several replicas of one shard and
// fails over between them. Reads prefer the lowest-index replica
// whose circuit breaker admits traffic (primary-first). A replica
// that errors trips its breaker open and is skipped until the
// breaker's cooldown admits a half-open probe; a successful probe
// closes the breaker and traffic returns — failed replicas heal
// automatically, with no operator MarkHealthy required.

// ReplicaSet is a Shard backed by interchangeable replicas, each
// guarded by its own fault.Breaker.
type ReplicaSet struct {
	replicas []Shard
	breakers []*fault.Breaker

	mu        sync.Mutex
	lastCount int // last count observed from any replica
}

// DefaultReplicaBreaker is the breaker policy NewReplicaSet applies:
// trip after one failure, probe again on the very next eligible call
// (zero cooldown), close after one probe success. This mirrors the
// old always-retry "desperation pass" while keeping probe traffic to
// one call per query.
var DefaultReplicaBreaker = fault.BreakerConfig{
	FailureThreshold: 1,
	SuccessThreshold: 1,
	Cooldown:         0,
}

// NewReplicaSet wires replicas with the default breaker policy; at
// least one replica is required.
func NewReplicaSet(replicas ...Shard) (*ReplicaSet, error) {
	return NewReplicaSetWithBreaker(DefaultReplicaBreaker, replicas...)
}

// NewReplicaSetWithBreaker wires replicas with an explicit breaker
// policy (per-replica breakers are independent instances of cfg).
// Unless the caller installs its own OnStateChange hook, transitions
// feed the obs breaker-transition counter.
func NewReplicaSetWithBreaker(cfg fault.BreakerConfig, replicas ...Shard) (*ReplicaSet, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("dist: replica set needs at least one replica")
	}
	if cfg.OnStateChange == nil {
		cfg.OnStateChange = func(from, to fault.State) {
			obs.BreakerTransitions.With(to.String()).Inc()
		}
	}
	breakers := make([]*fault.Breaker, len(replicas))
	for i := range breakers {
		breakers[i] = fault.NewBreaker(cfg)
	}
	return &ReplicaSet{
		replicas:  replicas,
		breakers:  breakers,
		lastCount: replicas[0].Count(),
	}, nil
}

// Count implements Shard. It returns the count from the first replica
// whose breaker is not open; when every breaker is open it returns
// the last-known count rather than a misleading 0 — the data has not
// vanished just because its replicas are briefly unreachable. The
// value is seeded from the first replica at construction, so it is
// meaningful even before any search has run.
func (r *ReplicaSet) Count() int {
	for i, rep := range r.replicas {
		if r.breakers[i].State() != fault.Open {
			n := rep.Count()
			r.mu.Lock()
			r.lastCount = n
			r.mu.Unlock()
			return n
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastCount
}

// Healthy reports how many replicas are currently admitting traffic
// (breaker not open).
func (r *ReplicaSet) Healthy() int {
	n := 0
	for _, b := range r.breakers {
		if b.State() != fault.Open {
			n++
		}
	}
	return n
}

// State returns replica i's breaker position (fault.Closed if i is
// out of range).
func (r *ReplicaSet) State(i int) fault.State {
	if i < 0 || i >= len(r.breakers) {
		return fault.Closed
	}
	return r.breakers[i].State()
}

// BreakerStates implements the BreakerStates interface: one breaker
// position per replica, letting the router's health endpoint see
// through the set.
func (r *ReplicaSet) BreakerStates() []fault.State {
	out := make([]fault.State, len(r.breakers))
	for i, b := range r.breakers {
		out[i] = b.State()
	}
	return out
}

// MarkHealthy force-closes a replica's breaker (e.g. an operator
// restarted it and wants traffic back immediately instead of waiting
// out the cooldown).
func (r *ReplicaSet) MarkHealthy(i int) {
	if i >= 0 && i < len(r.breakers) {
		r.breakers[i].Reset()
	}
}

// Search implements Shard with failover: replicas are tried in
// breaker-admission order (primary first); an erroring replica trips
// its breaker and the next takes over. Only when every replica fails
// or is circuit-open does the set return an error. Caller
// cancellation aborts immediately and is never charged to a replica.
func (r *ReplicaSet) Search(ctx context.Context, req vdbms.SearchRequest) ([]topk.Result, error) {
	var lastErr error
	tried := 0
	for i := range r.replicas {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last replica error: %v)", err, lastErr)
			}
			return nil, err
		}
		b := r.breakers[i]
		if !b.Allow() {
			continue
		}
		tried++
		res, err := r.replicas[i].Search(ctx, req)
		if err == nil {
			b.OnSuccess()
			if tried > 1 {
				// The primary (or an earlier replica) failed and a later
				// one answered: count the failover.
				obs.ReplicaFailovers.Add(int64(tried - 1))
			}
			return res, nil
		}
		if ctx.Err() != nil {
			// The deadline hit mid-call: the failure tells us nothing
			// about this replica, so leave its breaker alone.
			return nil, err
		}
		b.OnFailure()
		lastErr = err
	}
	if tried == 0 {
		return nil, fmt.Errorf("dist: all %d replicas rejected: %w", len(r.replicas), fault.ErrOpen)
	}
	return nil, fmt.Errorf("dist: all %d replicas failed: %w", len(r.replicas), lastErr)
}
