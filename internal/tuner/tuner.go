// Package tuner maintains per-collection recall-vs-cost frontiers for
// ANN search parameters and resolves a target recall to the cheapest
// parameter value that meets it.
//
// A Frontier tracks one knob (Ef for graph/tree indexes, NProbe for
// partition/hash indexes) over a fixed ladder of candidate values.
// Observations arrive from a background pass that replays sampled
// production queries against exact ground truth (the same machinery as
// the online recall auditor) at every ladder rung, so each rung
// accumulates an EWMA of measured recall and distance-computation
// cost, bucketed by k (power-of-two buckets: a k=10 query and a k=12
// query share a bucket, k=100 does not).
//
// Resolution is lock-free on the query path: Observe publishes an
// immutable table through an atomic pointer, and Resolve reads it.
// Two guards keep resolution safe and stable:
//
//   - Safe default while under-observed: a rung is only trusted once
//     it has MinSamples replayed queries behind it. Until some trusted
//     rung meets the target, Resolve reports the ladder maximum — the
//     most expensive, highest-recall setting — so an SLO is never
//     missed because the tuner has not warmed up yet.
//   - Hysteresis against oscillation: moving to a cheaper rung than
//     the last resolution requires the cheaper rung to clear the
//     target by Margin. Noise that bounces a rung's recall across the
//     bare target therefore cannot flap the resolved parameter; moves
//     to a more expensive rung apply immediately (recall is at risk).
package tuner

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Knob identifies which index search parameter a frontier tunes.
type Knob int

const (
	// KnobEf tunes the candidate-list width of graph/tree indexes.
	KnobEf Knob = iota
	// KnobNProbe tunes the partitions-probed count of IVF-family
	// (and hash-bucket) indexes.
	KnobNProbe
)

func (k Knob) String() string {
	if k == KnobNProbe {
		return "nprobe"
	}
	return "ef"
}

// EfLadder and NProbeLadder are the candidate values a frontier
// explores. Geometric spacing keeps replay cost bounded while covering
// the useful range: below the bottom rung recall collapses, above the
// top rung cost grows with no recall left to buy.
var (
	EfLadder     = []int{8, 16, 32, 64, 128, 256, 512}
	NProbeLadder = []int{1, 2, 4, 8, 16, 32, 64, 128}
)

// Ladder returns the candidate values for a knob. The returned slice
// is shared; callers must not mutate it.
func Ladder(k Knob) []int {
	if k == KnobNProbe {
		return NProbeLadder
	}
	return EfLadder
}

// maxBuckets covers k up to 2^19; searches beyond that share the top
// bucket rather than growing the table.
const maxBuckets = 20

// bucketOf maps k to its power-of-two bucket: k in (2^(i-1), 2^i]
// lands in bucket i, so k=8,9..16 share bucket 4 and k=10 and k=100
// do not share one.
func bucketOf(k int) int {
	if k <= 1 {
		return 0
	}
	b := bits.Len(uint(k - 1))
	if b >= maxBuckets {
		return maxBuckets - 1
	}
	return b
}

// Point is the accumulated estimate for one (k-bucket, ladder rung).
type Point struct {
	Recall  float64 // EWMA of replayed recall@k at this rung
	Comps   float64 // EWMA of distance computations per query
	Samples int     // total replayed queries behind the estimate
}

// Observation carries one tuning pass's aggregate for a single rung.
type Observation struct {
	Param   int     // ladder value the replay ran at
	Recall  float64 // mean recall@k across the pass's samples
	Comps   float64 // mean distance computations per query
	Samples int     // queries aggregated into this observation
}

// Config bounds when estimates are trusted and how they move.
type Config struct {
	// MinSamples is the replay count a rung needs before Resolve
	// trusts it. Zero means DefaultMinSamples.
	MinSamples int
	// Margin is the recall headroom a cheaper rung must clear over
	// the target before Resolve will move down to it. Zero means
	// DefaultMargin.
	Margin float64
	// Decay is the EWMA weight of a new observation against the
	// standing estimate, in (0, 1]. Zero means DefaultDecay.
	Decay float64
}

// Defaults for Config zero values.
const (
	DefaultMinSamples = 8
	DefaultMargin     = 0.01
	DefaultDecay      = 0.5
)

func (c Config) normalized() Config {
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.Margin <= 0 {
		c.Margin = DefaultMargin
	}
	if c.Decay <= 0 || c.Decay > 1 {
		c.Decay = DefaultDecay
	}
	return c
}

// table is the immutable resolution state published to readers.
type table struct {
	buckets [maxBuckets][]Point // nil until the bucket has data
}

// Frontier is the recall-vs-cost frontier for one (collection, index
// kind) pair. Observe is called from the tuning pass under the
// frontier's own lock; Resolve is lock-free and safe from any number
// of concurrent query goroutines.
type Frontier struct {
	kind string
	knob Knob
	cfg  Config

	mu      sync.Mutex
	buckets [maxBuckets][]Point // mutable master copy, guarded by mu

	tab  atomic.Pointer[table]
	last [maxBuckets]atomic.Int32 // hysteresis: last resolved rung+1 (0 = none)
}

// New returns an empty frontier for an index kind, tuning knob — the
// search parameter the kind's registry declaration names.
func New(kind string, knob Knob, cfg Config) *Frontier {
	f := &Frontier{kind: kind, knob: knob, cfg: cfg.normalized()}
	f.tab.Store(&table{})
	return f
}

// Kind returns the index kind the frontier was built for. A stale
// frontier (index swapped to a different kind) must not be consulted.
func (f *Frontier) Kind() string { return f.kind }

// Knob returns which search parameter this frontier tunes.
func (f *Frontier) Knob() Knob { return f.knob }

// MaxParam is the ladder maximum — the safe default while the frontier
// is under-observed.
func (f *Frontier) MaxParam() int {
	l := Ladder(f.knob)
	return l[len(l)-1]
}

// MinSamples reports the trust threshold the frontier runs with.
func (f *Frontier) MinSamples() int { return f.cfg.MinSamples }

// Observe folds one tuning pass's per-rung aggregates for queries of
// the given k into the frontier and publishes a fresh resolution
// table. Observations with unknown ladder values are ignored.
func (f *Frontier) Observe(k int, obs []Observation) {
	ladder := Ladder(f.knob)
	b := bucketOf(k)

	f.mu.Lock()
	defer f.mu.Unlock()
	pts := f.buckets[b]
	if pts == nil {
		pts = make([]Point, len(ladder))
		f.buckets[b] = pts
	}
	for _, o := range obs {
		if o.Samples <= 0 {
			continue
		}
		i := rungIndex(ladder, o.Param)
		if i < 0 {
			continue
		}
		p := &pts[i]
		if p.Samples == 0 {
			p.Recall, p.Comps = o.Recall, o.Comps
		} else {
			a := f.cfg.Decay
			p.Recall = (1-a)*p.Recall + a*o.Recall
			p.Comps = (1-a)*p.Comps + a*o.Comps
		}
		p.Samples += o.Samples
	}
	f.publishLocked()
}

func rungIndex(ladder []int, v int) int {
	for i, l := range ladder {
		if l == v {
			return i
		}
	}
	return -1
}

func (f *Frontier) publishLocked() {
	t := &table{}
	for b, pts := range f.buckets {
		if pts == nil {
			continue
		}
		cp := make([]Point, len(pts))
		copy(cp, pts)
		t.buckets[b] = cp
	}
	f.tab.Store(t)
}

// Resolve maps a target recall to the cheapest trusted ladder value
// whose estimated recall meets it, for queries of the given k.
// trusted=false means the frontier has no rung that provably meets the
// target (cold, under-sampled, or the target is above everything
// observed); the returned param is then the ladder maximum, the safe
// default. Lock-free; safe for concurrent use.
func (f *Frontier) Resolve(target float64, k int) (param int, trusted bool) {
	ladder := Ladder(f.knob)
	b := bucketOf(k)
	pts := f.tab.Load().buckets[b]
	if pts == nil {
		return f.MaxParam(), false
	}
	cand := -1
	for i, p := range pts {
		if p.Samples >= f.cfg.MinSamples && p.Recall >= target {
			cand = i
			break // ladder is ascending in cost: first hit is cheapest
		}
	}
	if cand < 0 {
		f.last[b].Store(0)
		return f.MaxParam(), false
	}
	// Hysteresis: moving cheaper than the previous resolution needs
	// Margin headroom; holding or moving costlier applies directly.
	if prev := int(f.last[b].Load()) - 1; prev > cand && prev < len(pts) {
		if pts[cand].Recall < target+f.cfg.Margin &&
			pts[prev].Samples >= f.cfg.MinSamples && pts[prev].Recall >= target {
			cand = prev
		}
	}
	f.last[b].Store(int32(cand + 1))
	return ladder[cand], true
}

// BestRecall reports the highest trusted recall estimate in k's bucket
// across all rungs, and whether any rung there is trusted at all. The
// drift detector uses it to decide "tuning exhausted": if even the
// best rung cannot reach the target, no parameter change will — only a
// different index can.
func (f *Frontier) BestRecall(k int) (recall float64, ok bool) {
	pts := f.tab.Load().buckets[bucketOf(k)]
	if pts == nil {
		return 0, false
	}
	for _, p := range pts {
		if p.Samples >= f.cfg.MinSamples {
			ok = true
			if p.Recall > recall {
				recall = p.Recall
			}
		}
	}
	return recall, ok
}

// BucketSnapshot returns a copy of the points for k's bucket, rung by
// rung in ladder order (nil if the bucket has never been observed).
func (f *Frontier) BucketSnapshot(k int) []Point {
	pts := f.tab.Load().buckets[bucketOf(k)]
	if pts == nil {
		return nil
	}
	cp := make([]Point, len(pts))
	copy(cp, pts)
	return cp
}

// Buckets reports which k-bucket lower bounds currently hold data,
// in ascending order, as representative k values (the bucket's
// inclusive upper bound: 1, 2, 4, 8, ...).
func (f *Frontier) Buckets() []int {
	t := f.tab.Load()
	var ks []int
	for b, pts := range t.buckets {
		if pts != nil {
			ks = append(ks, 1<<b)
		}
	}
	return ks
}
