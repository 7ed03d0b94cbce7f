// Package stats maintains per-collection online statistics: row
// counts and churn rates, query-shape distributions (k, ef, nprobe,
// filter presence), per-attribute filter selectivity histograms fed by
// measured survivor fractions from executed scans (bitmap
// cardinalities, per-row filter pass rates — never the planner's
// sampled estimate), and observed ANN probe cost. It is the
// measurement substrate of the survey's §2.4 argument that plan
// enumeration is only as good as the statistics behind it: the
// optimizer (planner.AdaptiveEnv) plans with the observed probe cost
// and timing calibration in place of static defaults, and the recall
// auditor (internal/core) replays the query reservoir (reservoir.go)
// to measure recall actually served.
//
// Hot-path constraint: recording an observation is a handful of atomic
// adds, mirroring internal/obs — a query must never take a contended
// lock to be counted. The only mutexes guard the per-column
// selectivity map (read-locked after first use) and the churn-rate
// ring (mutation-path only, far off the search hot path).
package stats

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Dist is a fixed-bucket distribution over small non-negative integer
// observations (k, ef, nprobe). Bounds are inclusive upper edges;
// observations above the last edge land in the implicit overflow
// bucket. Observe is two atomic adds.
type Dist struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	total  atomic.Int64
	sum    atomic.Int64
}

// ShapeBounds are the default bucket edges for query-shape
// distributions, covering the practical k/ef/nprobe range.
var ShapeBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// NewBucketDist creates a distribution with the given inclusive upper
// edges (ShapeBounds when nil). Edges must be ascending.
func NewBucketDist(bounds []int64) *Dist {
	if bounds == nil {
		bounds = ShapeBounds
	}
	bs := make([]int64, len(bounds))
	copy(bs, bounds)
	return &Dist{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value.
func (d *Dist) Observe(v int64) {
	i := 0
	for i < len(d.bounds) && v > d.bounds[i] {
		i++
	}
	d.counts[i].Add(1)
	d.total.Add(1)
	d.sum.Add(v)
}

// Count returns the number of observations.
func (d *Dist) Count() int64 { return d.total.Load() }

// DistSnapshot is the JSON-friendly view of a Dist.
type DistSnapshot struct {
	Count   int64           `json:"count"`
	Mean    float64         `json:"mean"`
	Buckets map[int64]int64 `json:"buckets,omitempty"` // upper edge -> count; -1 is overflow
}

// Snapshot materializes the distribution. Zero-count buckets are
// omitted to keep /debug/stats readable.
func (d *Dist) Snapshot() DistSnapshot {
	out := DistSnapshot{Buckets: map[int64]int64{}}
	out.Count = d.total.Load()
	if out.Count > 0 {
		out.Mean = float64(d.sum.Load()) / float64(out.Count)
	}
	for i := range d.counts {
		c := d.counts[i].Load()
		if c == 0 {
			continue
		}
		edge := int64(-1) // overflow
		if i < len(d.bounds) {
			edge = d.bounds[i]
		}
		out.Buckets[edge] = c
	}
	return out
}

// selBuckets is the resolution of selectivity histograms: 20 uniform
// buckets over [0,1].
const selBuckets = 20

// SelHist is a histogram of observed predicate selectivities in [0,1]
// for one attribute column.
type SelHist struct {
	counts [selBuckets]atomic.Int64
	total  atomic.Int64
	sum    atomic.Uint64 // float64 bits of the running sum
}

// Observe records one selectivity observation (clamped to [0,1]).
func (h *SelHist) Observe(sel float64) {
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	i := int(sel * selBuckets)
	if i >= selBuckets {
		i = selBuckets - 1
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64frombits(old) + sel
		if h.sum.CompareAndSwap(old, math.Float64bits(nv)) {
			break
		}
	}
}

// Mean returns the mean observed selectivity and the observation
// count (0, 0 when empty).
func (h *SelHist) Mean() (float64, int64) {
	n := h.total.Load()
	if n == 0 {
		return 0, 0
	}
	return math.Float64frombits(h.sum.Load()) / float64(n), n
}

// SelSnapshot is the JSON-friendly view of a SelHist. Buckets[i]
// counts observations in [i/20, (i+1)/20).
type SelSnapshot struct {
	Count   int64   `json:"count"`
	Mean    float64 `json:"mean"`
	Buckets []int64 `json:"buckets"`
}

// Snapshot materializes the histogram.
func (h *SelHist) Snapshot() SelSnapshot {
	mean, n := h.Mean()
	out := SelSnapshot{Count: n, Mean: mean, Buckets: make([]int64, selBuckets)}
	for i := range h.counts {
		out.Buckets[i] = h.counts[i].Load()
	}
	return out
}

// rateWindow is the churn-rate horizon: events are counted in
// rateSlots buckets of rateSlotDur each, and Rate.PerSecond averages
// over however much of the window has data.
const (
	rateSlotDur = 10 * time.Second
	rateSlots   = 6
)

// Rate tracks a windowed event rate (events/second over the last
// minute). Mark sits on the mutation path, not the search hot path,
// so a short mutex is fine; now is injectable for tests.
type Rate struct {
	mu      sync.Mutex
	slots   [rateSlots]int64
	epoch   [rateSlots]int64 // slot index (unix/rateSlotDur) the count belongs to
	started bool
	first   int64 // unix second of the first Mark (warm-up divisor)
	now     func() time.Time
}

// NewRate returns a rate tracker using the real clock.
func NewRate() *Rate { return &Rate{now: time.Now} }

// NewRateClock returns a rate tracker on an injected clock (tests).
func NewRateClock(now func() time.Time) *Rate { return &Rate{now: now} }

// Mark records n events now.
func (r *Rate) Mark(n int64) {
	t := r.now().Unix()
	e := t / int64(rateSlotDur/time.Second)
	i := int(e % rateSlots)
	r.mu.Lock()
	if !r.started {
		r.started, r.first = true, t
	}
	if r.epoch[i] != e {
		r.epoch[i], r.slots[i] = e, 0
	}
	r.slots[i] += n
	r.mu.Unlock()
}

// PerSecond returns the event rate over the trailing window. Until the
// window fills, the divisor is the time elapsed since the first Mark
// (counting the first marked second as whole), so a fresh tracker
// reports its true rate instead of diluting it over empty slots.
func (r *Rate) PerSecond() float64 {
	t := r.now().Unix()
	e := t / int64(rateSlotDur/time.Second)
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started {
		return 0
	}
	var total int64
	for i := range r.slots {
		if e-r.epoch[i] < rateSlots {
			total += r.slots[i]
		}
	}
	elapsed := float64(t-r.first) + 1
	if window := (rateSlots * rateSlotDur).Seconds(); elapsed > window {
		elapsed = window
	}
	return float64(total) / elapsed
}

// Collection tracks online statistics for one collection. All record
// methods are safe for concurrent use; the query-side ones are a few
// atomic adds.
type Collection struct {
	name string

	inserts, updates, deletes atomic.Int64
	insertRate, updateRate    *Rate
	deleteRate, queryRate     *Rate

	queries  atomic.Int64
	filtered atomic.Int64
	kDist    *Dist
	efDist   *Dist
	nprobe   *Dist

	// ANN probe cost: distance computations per non-exact index probe,
	// the observed replacement for the planner's sqrt(N) IndexComps
	// heuristic.
	probeCount atomic.Int64
	probeComps atomic.Int64

	// Timing calibration: cumulative wall nanoseconds and unit counts
	// for each cost class the planner's linear model weighs, fed by
	// the executor's stage timers. Ratios of the per-unit costs
	// replace the model's static constants (AttrCostRatio, QuantRatio)
	// once enough scans back them. Scan counts — not unit counts —
	// gate trust, because one scan contributes one (already averaged)
	// timing observation however many rows it touched.
	fullCompNanos  atomic.Int64 // full-precision distance comps
	fullComps      atomic.Int64
	fullScans      atomic.Int64
	quantCompNanos atomic.Int64 // quantized-code comparisons
	quantComps     atomic.Int64
	quantScans     atomic.Int64
	attrNanos      atomic.Int64 // attribute predicate evaluations
	attrEvals      atomic.Int64
	attrScans      atomic.Int64

	selMu sync.RWMutex
	sel   map[string]*SelHist
}

// New creates a stats tracker for the named collection.
func New(name string) *Collection {
	c := &Collection{
		name:       name,
		insertRate: NewRate(),
		updateRate: NewRate(),
		deleteRate: NewRate(),
		queryRate:  NewRate(),
		kDist:      NewBucketDist(nil),
		efDist:     NewBucketDist(nil),
		nprobe:     NewBucketDist(nil),
		sel:        map[string]*SelHist{},
	}
	return c
}

// RecordInsert counts n inserted rows.
func (c *Collection) RecordInsert(n int64) {
	c.inserts.Add(n)
	c.insertRate.Mark(n)
}

// RecordUpdate counts one in-place vector update.
func (c *Collection) RecordUpdate() {
	c.updates.Add(1)
	c.updateRate.Mark(1)
}

// RecordDelete counts one deletion.
func (c *Collection) RecordDelete() {
	c.deletes.Add(1)
	c.deleteRate.Mark(1)
}

// RecordQuery records one search's shape. ef/nprobe zero means "index
// default" and is recorded as such (bucket 1 counts explicit 1s;
// zeros land in the first bucket too — the distribution is about the
// knobs clients actually send).
func (c *Collection) RecordQuery(k, ef, nprobe int, hasFilter bool) {
	c.queries.Add(1)
	c.queryRate.Mark(1)
	if hasFilter {
		c.filtered.Add(1)
	}
	c.kDist.Observe(int64(k))
	c.efDist.Observe(int64(ef))
	c.nprobe.Observe(int64(nprobe))
}

// RecordProbe records n ANN index probes that made comps distance
// computations between them. Exact (flat) scans are excluded by the
// caller: the statistic estimates the cost of an index probe, which is
// what the cost model needs.
func (c *Collection) RecordProbe(n, comps int64) {
	c.probeCount.Add(n)
	c.probeComps.Add(comps)
}

// MeanProbeComps returns the mean distance computations per ANN probe
// and the probe count (0, 0 before the first probe).
func (c *Collection) MeanProbeComps() (float64, int64) {
	n := c.probeCount.Load()
	if n == 0 {
		return 0, 0
	}
	return float64(c.probeComps.Load()) / float64(n), n
}

// RecordCompCost records the wall time of one scan's distance
// computations: nanos spent performing comps comparisons, quantized
// when the scan compared compressed codes instead of full-precision
// vectors. Fed by the executor's probe-stage timer (ANN probes) and
// exact-scan timer (flat probes, the cleanest full-precision
// baseline).
func (c *Collection) RecordCompCost(nanos, comps int64, quantized bool) {
	if nanos <= 0 || comps <= 0 {
		return
	}
	if quantized {
		c.quantCompNanos.Add(nanos)
		c.quantComps.Add(comps)
		c.quantScans.Add(1)
	} else {
		c.fullCompNanos.Add(nanos)
		c.fullComps.Add(comps)
		c.fullScans.Add(1)
	}
}

// RecordAttrCost records the wall time of one scan's attribute
// predicate work: nanos spent performing evals predicate evaluations
// (a bitmap build evaluates every live row once).
func (c *Collection) RecordAttrCost(nanos, evals int64) {
	if nanos <= 0 || evals <= 0 {
		return
	}
	c.attrNanos.Add(nanos)
	c.attrEvals.Add(evals)
	c.attrScans.Add(1)
}

// Calibration is the measured per-unit cost of each class in the
// planner's linear model, with the scan counts backing each estimate.
type Calibration struct {
	NsPerComp      float64 `json:"ns_per_comp"`       // full-precision distance comp
	NsPerQuantComp float64 `json:"ns_per_quant_comp"` // quantized-code comparison
	NsPerAttrEval  float64 `json:"ns_per_attr_eval"`  // attribute predicate evaluation
	CompScans      int64   `json:"comp_scans"`
	QuantScans     int64   `json:"quant_scans"`
	AttrScans      int64   `json:"attr_scans"`
}

// Calibration returns the current per-unit cost estimates. Zero-count
// classes report a zero cost; consumers gate on the scan counts.
func (c *Collection) Calibration() Calibration {
	cal := Calibration{
		CompScans:  c.fullScans.Load(),
		QuantScans: c.quantScans.Load(),
		AttrScans:  c.attrScans.Load(),
	}
	if n := c.fullComps.Load(); n > 0 {
		cal.NsPerComp = float64(c.fullCompNanos.Load()) / float64(n)
	}
	if n := c.quantComps.Load(); n > 0 {
		cal.NsPerQuantComp = float64(c.quantCompNanos.Load()) / float64(n)
	}
	if n := c.attrEvals.Load(); n > 0 {
		cal.NsPerAttrEval = float64(c.attrNanos.Load()) / float64(n)
	}
	return cal
}

// RecordSelectivity records one measured selectivity for column col
// (a survivor fraction observed during execution, not an estimate).
// Multi-predicate conjunctions record the conjunction's selectivity
// under each referenced column — a per-column view for /debug/stats,
// deliberately coarse (DESIGN.md §11). The planner does not read it:
// it plans with each query's own sampled estimate.
func (c *Collection) RecordSelectivity(col string, sel float64) {
	c.selMu.RLock()
	h := c.sel[col]
	c.selMu.RUnlock()
	if h == nil {
		c.selMu.Lock()
		if h = c.sel[col]; h == nil {
			h = &SelHist{}
			c.sel[col] = h
		}
		c.selMu.Unlock()
	}
	h.Observe(sel)
}

// Snapshot is a point-in-time view of a collection's statistics: row
// counts and churn rates, query-shape distributions, ANN probe cost,
// the planner's timing calibration, and per-column filter selectivity.
// It is what /debug/stats, collection info and the public
// Collection.Stats API (as CollectionStats) all render. Rows/live/dim
// are supplied by the caller (they live in the collection's epoch
// snapshot, not here).
type Snapshot struct {
	Rows    int `json:"rows"`
	Live    int `json:"live"`
	Deleted int `json:"deleted"`
	Dim     int `json:"dim"`

	Inserts int64 `json:"inserts"`
	Updates int64 `json:"updates"`
	Deletes int64 `json:"deletes"`
	Queries int64 `json:"queries"`

	InsertsPerSec float64 `json:"inserts_per_sec"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
	DeletesPerSec float64 `json:"deletes_per_sec"`
	QueriesPerSec float64 `json:"queries_per_sec"`

	FilteredFraction float64      `json:"filtered_fraction"`
	K                DistSnapshot `json:"k"`
	Ef               DistSnapshot `json:"ef"`
	NProbe           DistSnapshot `json:"nprobe"`

	ANNProbes         int64   `json:"ann_probes"`
	ANNProbeMeanComps float64 `json:"ann_probe_mean_comps"`

	Calibration Calibration `json:"calibration"`

	Selectivity map[string]SelSnapshot `json:"selectivity,omitempty"`
}

// Snapshot materializes the statistics alongside the caller-supplied
// row counts and dimension.
func (c *Collection) Snapshot(rows, live, dim int) Snapshot {
	s := Snapshot{
		Rows: rows, Live: live, Deleted: rows - live, Dim: dim,
		Inserts: c.inserts.Load(), Updates: c.updates.Load(),
		Deletes: c.deletes.Load(), Queries: c.queries.Load(),
		InsertsPerSec: c.insertRate.PerSecond(),
		UpdatesPerSec: c.updateRate.PerSecond(),
		DeletesPerSec: c.deleteRate.PerSecond(),
		QueriesPerSec: c.queryRate.PerSecond(),
		K:             c.kDist.Snapshot(),
		Ef:            c.efDist.Snapshot(),
		NProbe:        c.nprobe.Snapshot(),
	}
	if s.Queries > 0 {
		s.FilteredFraction = float64(c.filtered.Load()) / float64(s.Queries)
	}
	s.ANNProbeMeanComps, s.ANNProbes = c.MeanProbeComps()
	s.Calibration = c.Calibration()
	c.selMu.RLock()
	if len(c.sel) > 0 {
		s.Selectivity = make(map[string]SelSnapshot, len(c.sel))
		for col, h := range c.sel {
			s.Selectivity[col] = h.Snapshot()
		}
	}
	c.selMu.RUnlock()
	return s
}
