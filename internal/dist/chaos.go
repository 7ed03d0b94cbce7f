package dist

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"vdbms"
	"vdbms/internal/fault"
	"vdbms/internal/topk"
)

// ErrInjected is the error a ChaosShard returns on an injected
// failure.
var ErrInjected = errors.New("dist: injected error")

// ChaosConfig describes the faults a ChaosShard injects. All
// randomness comes from one seeded source, so a fixed seed replays an
// identical fault schedule.
type ChaosConfig struct {
	// ErrorRate is the probability ([0,1]) a call fails with
	// ErrInjected before reaching the wrapped shard.
	ErrorRate float64
	// HangRate is the probability ([0,1]) a call blocks until its
	// context is done (a stuck replica). Checked before ErrorRate.
	HangRate float64
	// FailFirst deterministically fails the first N calls regardless
	// of ErrorRate — scripted outages for recovery tests.
	FailFirst int
	// Latency is added to every call before it is served.
	Latency time.Duration
	// LatencyJitter adds U[0, LatencyJitter) on top of Latency.
	LatencyJitter time.Duration
	// Seed drives the fault schedule. 0 means 1.
	Seed int64
}

// ChaosShard wraps a Shard and injects faults per its config: extra
// latency, random errors, and hangs that only a context deadline can
// bound. It is itself a Shard, so it can stand in anywhere a real
// shard or replica does — including in front of an RPC client, which
// is how cmd/vdbms-shard's chaos mode and the failover tests exercise
// the full distributed path. Safe for concurrent use.
type ChaosShard struct {
	inner Shard

	mu     sync.Mutex
	cfg    ChaosConfig
	rng    *rand.Rand
	calls  int64
	faults int64
}

// NewChaosShard wraps inner with seeded fault injection.
func NewChaosShard(inner Shard, cfg ChaosConfig) *ChaosShard {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &ChaosShard{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// SetErrorRate adjusts the error probability at runtime (recovery
// scenarios: outage, then heal).
func (c *ChaosShard) SetErrorRate(p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.ErrorRate = p
}

// SetHangRate adjusts the hang probability at runtime.
func (c *ChaosShard) SetHangRate(p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.HangRate = p
}

// Stats reports total calls and how many had a fault injected.
func (c *ChaosShard) Stats() (calls, faults int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls, c.faults
}

// Count implements Shard, delegating to the wrapped shard.
func (c *ChaosShard) Count() int { return c.inner.Count() }

// Search implements Shard with fault injection. The fault decision
// for each call is drawn under the lock so concurrent callers still
// observe a deterministic aggregate schedule for a given seed.
func (c *ChaosShard) Search(ctx context.Context, req vdbms.SearchRequest) ([]topk.Result, error) {
	c.mu.Lock()
	c.calls++
	delay := c.cfg.Latency
	if c.cfg.LatencyJitter > 0 {
		delay += time.Duration(c.rng.Int63n(int64(c.cfg.LatencyJitter)))
	}
	hang := c.cfg.HangRate > 0 && c.rng.Float64() < c.cfg.HangRate
	fail := c.cfg.FailFirst > 0 || (c.cfg.ErrorRate > 0 && c.rng.Float64() < c.cfg.ErrorRate)
	if c.cfg.FailFirst > 0 {
		c.cfg.FailFirst--
	}
	if hang || fail {
		c.faults++
	}
	c.mu.Unlock()

	if hang {
		// A stuck replica: never answers, only the caller's deadline
		// ends the wait.
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if delay > 0 {
		if err := fault.Sleep(ctx, delay); err != nil {
			return nil, err
		}
	}
	if fail {
		return nil, ErrInjected
	}
	return c.inner.Search(ctx, req)
}
