package stats

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"vdbms/internal/filter"
)

// Sample is one captured live query: everything the recall loop needs
// to replay it exactly — the query vector, the requested k, the
// predicate set, and the result ids the serving path actually
// returned. The vector and slices are owned by the sample (callers
// copy before offering) and never mutated afterwards, so snapshots
// can share them.
type Sample struct {
	Vector []float32
	K      int
	Preds  []filter.Predicate
	Served []int64
	// Epoch is an opaque staleness stamp supplied by the owner (core
	// stamps its in-place-update epoch): the recall loop skips samples
	// whose stamp predates the collection's current epoch, because the
	// vector data they were ranked against has been overwritten since.
	Epoch uint64
	// Rows is the row count of the snapshot that served the query: the
	// replay ranks only ids below it, so rows appended since never count
	// against the served answer. 0 means the whole replay snapshot.
	Rows int
}

// Reservoir is a concurrency-safe uniform reservoir sampler
// (Vitter's Algorithm R) over an unbounded query stream. The serving
// path pays one atomic add plus one cheap random draw per offer; the
// mutex is taken only when a sample is actually admitted, which
// happens with probability cap/n — vanishing at high query volume —
// so sampling never serializes the search hot path.
type Reservoir struct {
	capacity int
	seen     atomic.Int64
	// randN draws a uniform int64 in [0, n). The default is
	// math/rand/v2's lock-free global generator; tests inject a seeded
	// source for deterministic inclusion statistics.
	randN func(n int64) int64

	mu    sync.Mutex
	items []Sample
}

// NewReservoir creates a reservoir holding up to capacity samples.
func NewReservoir(capacity int) *Reservoir {
	if capacity <= 0 {
		capacity = 256
	}
	return &Reservoir{capacity: capacity, randN: rand.Int64N}
}

// NewReservoirRand is NewReservoir with an injected random source
// (randN must return a uniform draw in [0, n)). Tests use a seeded
// source so inclusion statistics are reproducible.
func NewReservoirRand(capacity int, randN func(n int64) int64) *Reservoir {
	r := NewReservoir(capacity)
	r.randN = randN
	return r
}

// Cap returns the reservoir capacity.
func (r *Reservoir) Cap() int { return r.capacity }

// Seen returns how many samples have been offered since the last
// Reset.
func (r *Reservoir) Seen() int64 { return r.seen.Load() }

// MaybeOffer runs Algorithm R's admission decision and calls mk only
// when the sample is admitted, so rejected offers never pay for
// copying the query vector. Under concurrency the per-item inclusion
// probability remains cap/n in expectation (admissions race only over
// which slot they overwrite).
func (r *Reservoir) MaybeOffer(mk func() Sample) {
	n := r.seen.Add(1)
	if n <= int64(r.capacity) {
		s := mk()
		r.mu.Lock()
		if len(r.items) < r.capacity {
			r.items = append(r.items, s)
		} else {
			// A racing late offer filled the reservoir first; fall back
			// to a uniform replacement so no offer is silently dropped
			// with probability above its Algorithm R share.
			r.items[r.randN(int64(r.capacity))] = s
		}
		r.mu.Unlock()
		return
	}
	j := r.randN(n)
	if j >= int64(r.capacity) {
		return
	}
	s := mk()
	r.mu.Lock()
	if int(j) < len(r.items) {
		r.items[j] = s
	}
	r.mu.Unlock()
}

// Offer is MaybeOffer for a sample that is already built.
func (r *Reservoir) Offer(s Sample) { r.MaybeOffer(func() Sample { return s }) }

// Snapshot returns a copy of the current reservoir contents. The
// sample structs are copied; their slices are shared but immutable by
// contract.
func (r *Reservoir) Snapshot() []Sample {
	r.mu.Lock()
	out := make([]Sample, len(r.items))
	copy(out, r.items)
	r.mu.Unlock()
	return out
}

// Len returns the number of samples currently held.
func (r *Reservoir) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.items)
}

// Reset empties the reservoir and zeroes the stream counter.
func (r *Reservoir) Reset() {
	r.mu.Lock()
	r.items = r.items[:0]
	r.seen.Store(0)
	r.mu.Unlock()
}
