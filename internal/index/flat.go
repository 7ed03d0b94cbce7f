package index

import (
	"fmt"
	"math/bits"
	"sync"

	"vdbms/internal/obs"
	"vdbms/internal/pool"
	"vdbms/internal/topk"
	"vdbms/internal/tuner"
	"vdbms/internal/vec"
)

// Flat is the exact brute-force index: similarity projection over the
// whole collection followed by top-k (the Table Scan operator of
// Figure 1). It is the ground-truth baseline every ANN index is
// measured against and the fallback plan for tiny collections or very
// selective predicates.
//
// Scanning goes through a vec.Scorer in blocks of scanBlock rows:
// per-row state (cosine norms, the Mahalanobis pre-transform) is
// cached at construction and the inner loop is one block kernel call
// instead of scanBlock indirect function calls.
type Flat struct {
	dim int
	n   int
	sc  *vec.Scorer
	// qsc, when non-nil, is the compressed-scan kernel: Search scans
	// codes instead of floats, keeps the top rerank_k approximate
	// candidates, and re-scores them exactly with sc before the final
	// top-k cut. SearchRange always scans full precision (a radius
	// compare on approximate distances would drop boundary rows).
	qsc  vec.QuantScorer
	spec QuantSpec
}

// scanBlock is the rows scored per kernel call: large enough to
// amortize dispatch, small enough that the distance buffer stays in
// L1. A package variable so tests can sweep it.
var scanBlock = 256

// NewFlat wraps row-major data (not copied) with the given distance.
// Canonical vec distance functions are recognized and served by the
// metric-specialized kernels; anything else scores row-at-a-time.
func NewFlat(data []float32, n, d int, fn vec.DistanceFunc) (*Flat, error) {
	if d <= 0 || len(data) < n*d {
		return nil, fmt.Errorf("index: flat data %d shorter than n*d %d", len(data), n*d)
	}
	if fn == nil {
		fn = vec.SquaredL2
	}
	return &Flat{dim: d, n: n, sc: vec.ScorerFor(fn, data, n, d)}, nil
}

// NewFlatScorer wraps a prebuilt scorer, sharing its cached per-row
// state with the caller (the executor and LSM paths maintain one
// scorer per dataset across searches).
func NewFlatScorer(sc *vec.Scorer) (*Flat, error) {
	if sc == nil {
		return nil, fmt.Errorf("index: nil scorer")
	}
	return &Flat{dim: sc.Dim(), n: sc.Rows(), sc: sc}, nil
}

// NewFlatQuant builds a flat index scoring with the collection metric
// and, when spec selects a codec, a fused quantized scan with exact
// re-rank (trained on data at construction).
func NewFlatQuant(data []float32, n, d int, metric vec.Metric, spec QuantSpec) (*Flat, error) {
	if d <= 0 || len(data) < n*d {
		return nil, fmt.Errorf("index: flat data %d shorter than n*d %d", len(data), n*d)
	}
	sc, err := vec.NewScorer(metric, data, n, d)
	if err != nil {
		return nil, err
	}
	f := &Flat{dim: d, n: n, sc: sc, spec: spec}
	if spec.Enabled() {
		if f.qsc, err = BuildQuantKernel(spec, metric, data, n, d); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// QuantizedScan implements Quantized.
func (f *Flat) QuantizedScan() bool { return f.qsc != nil }

func init() {
	// Flat scores every row whatever the knob: Ef is declared because
	// the recall loop needs one, and no rung changes the work.
	Register(Family{Name: "flat", Knob: tuner.KnobEf, Metrics: AnyMetric, Options: QuantOptions, Build: func(data []float32, n, d int, metric vec.Metric, opts map[string]int) (Index, error) {
		return NewFlatQuant(data, n, d, metric, QuantSpecOf(opts))
	}})
}

// RerankExact re-scores approximate candidates with a full-precision
// scorer and returns the exact top k in (dist, id) collector order —
// the second stage of every compressed scan.
func RerankExact(sc *vec.Scorer, q []float32, res []topk.Result, k int) []topk.Result {
	if len(res) == 0 {
		return res
	}
	b := sc.Bind(q)
	ids := make([]int32, len(res))
	for i, r := range res {
		ids[i] = int32(r.ID)
	}
	dist := make([]float32, len(res))
	b.ScoreIDs(ids, dist)
	c := topk.NewCollector(k)
	for i, r := range res {
		c.Push(r.ID, dist[i])
	}
	return c.Results()
}

// Name implements Index.
func (f *Flat) Name() string { return "flat" }

// Size implements Index.
func (f *Flat) Size() int { return f.n }

// minRowsPerPartition keeps tiny scans serial: below this many rows
// per worker the goroutine hand-off costs more than the scan itself.
const minRowsPerPartition = 1024

// workers picks the partition count for a scan under p, backing off
// defaulted parallelism when partitions would be tiny. The work is the
// rows actually scored: all of them, or an allowlist's survivors (one
// popcount pass — a 1 %-selective scan is not worth a second worker).
func (f *Flat) workers(p *Params) int {
	w := pool.Default().Effective(p.Parallelism, f.n)
	if p.Parallelism <= 0 && w > 1 {
		// Defaulted parallelism backs off when partitions would be tiny;
		// an explicit knob is honored as given.
		work := f.n
		if p.Allow != nil {
			work = p.Allow.Count()
		}
		if byWork := (work + minRowsPerPartition - 1) / minRowsPerPartition; byWork < w {
			w = byWork
		}
	}
	return w
}

// FiltersConcurrently implements ConcurrentFilter.
func (f *Flat) FiltersConcurrently(p Params) bool { return f.workers(&p) > 1 }

// Search implements Index by exhaustive scan. With a predicate it
// degenerates to the "single-stage brute-force scan" plan the paper
// attributes to Qdrant/Vespa rule-based selection.
//
// The scan is partitioned into p.Parallelism contiguous row ranges,
// each feeding its own collector, merged at the end. Because both the
// per-range collectors and the merge resolve ties by (dist, id), and
// the kernel scores every row on its own in one accumulation order,
// the result is byte-identical at every worker count and block size.
// Every partition polls p.Ctx once per block; a cancelled scan returns
// its context's error with the rows it did score counted.
func (f *Flat) Search(q []float32, k int, p Params) ([]topk.Result, error) {
	if k <= 0 {
		return nil, ErrBadK
	}
	if len(q) != f.dim {
		return nil, fmt.Errorf("%w: query %d, index %d", ErrDim, len(q), f.dim)
	}
	// A quantized scan collects rerank_k approximate candidates and
	// re-scores them exactly after the merge; a full-precision scan
	// collects k finals directly.
	kk := k
	if f.qsc != nil {
		kk = f.spec.ResolveRerankK(p, k, f.n)
	}
	w := f.workers(&p)
	var merged *topk.Collector
	var work ScanWork
	if w <= 1 {
		merged = topk.NewCollector(kk)
		work = f.scanRange(q, merged, 0, f.n, &p)
	} else {
		obs.ParallelSearches.With("flat").Inc()
		offs := pool.Split(f.n, w)
		collectors := make([]*topk.Collector, w)
		workBy := make([]ScanWork, w)
		pool.Default().Run(w, func(i int) {
			c := topk.NewCollector(kk)
			workBy[i] = f.scanRange(q, c, offs[i], offs[i+1], &p)
			collectors[i] = c
		})
		merged = collectors[0]
		work = workBy[0]
		for i := 1; i < w; i++ {
			merged.Merge(collectors[i])
			work.Add(workBy[i])
		}
	}
	// A partition that stopped early left done closed for good, so this
	// one check sees every early stop.
	stopped := Stopped(p.Done())
	var res []topk.Result
	if !stopped {
		res = merged.Results()
		if f.qsc != nil {
			work.Comps += int64(len(res))
			res = RerankExact(f.sc, q, res, k)
		}
	}
	if p.Stats != nil {
		work.Record(p.Stats)
		if w < 1 {
			w = 1
		}
		p.Stats.Partitions += int64(w)
	}
	if stopped {
		return nil, p.Err()
	}
	return res, nil
}

// scanRange scores rows [lo, hi) into c and returns the rows it scored
// and how many of them the bound cut short. It reads only shared
// immutable state, so disjoint ranges run concurrently. Unconstrained
// scans score whole contiguous blocks; predicated scans gather admitted
// ids (forAdmitted) and score them through the same kernels, so only
// admitted rows are scored (and counted). Every block is scored within
// c's k-th distance as it stood before the block: c keeps nothing above
// it, so a row the kernel cuts there could never have entered
// (vec.Bound.ScoreBlockWithin). Either way it stops after the block
// during which p.Ctx ended.
func (f *Flat) scanRange(q []float32, c *topk.Collector, lo, hi int, p *Params) (work ScanWork) {
	// blockScorer is the slice of the Bind contract both the float and
	// the quantized kernels share; picking the binding here is what
	// lets every call site below switch by configuration, not code.
	type blockScorer interface {
		ScoreBlockWithin(lo, hi int, out []float32, bound float32) int
		ScoreIDsWithin(ids []int32, out []float32, bound float32) int
	}
	var b blockScorer
	if f.qsc != nil {
		b = vec.Uncut{QuantBound: f.qsc.Bind(q)}
	} else {
		b = f.sc.Bind(q)
	}
	done := p.Done()
	if !p.Constrained() {
		buf := getGatherBuf()
		defer gatherPool.Put(buf)
		for blo := lo; blo < hi && !Stopped(done); blo += scanBlock {
			dist := buf.dist[:min(scanBlock, hi-blo)]
			work.Cut += int64(b.ScoreBlockWithin(blo, blo+len(dist), dist, c.Worst()))
			c.PushBlock(int64(blo), dist)
			work.Comps += int64(len(dist))
		}
		return work
	}
	forAdmitted(p, lo, hi, done, func(ids []int32, dist []float32) {
		work.Cut += int64(b.ScoreIDsWithin(ids, dist, c.Worst()))
		c.PushIDs(ids, dist)
		work.Comps += int64(len(ids))
	})
	return work
}

// gatherBuf is the scratch of one scan partition: the distances the
// kernel writes for a block and, in a predicated scan, the admitted ids
// of the block. Pooled, so a scan allocates neither.
type gatherBuf struct {
	ids  []int32
	dist []float32
}

var gatherPool = sync.Pool{New: func() any { return new(gatherBuf) }}

// getGatherBuf takes a buffer of at least scanBlock entries from the
// pool; the caller returns it with gatherPool.Put.
func getGatherBuf() *gatherBuf {
	buf := gatherPool.Get().(*gatherBuf)
	if cap(buf.ids) < scanBlock {
		buf.ids, buf.dist = make([]int32, 0, scanBlock), make([]float32, scanBlock)
	}
	return buf
}

// forAdmitted gathers the rows of [lo, hi) that p admits into blocks of
// up to scanBlock ids and hands each block to emit, in ascending id
// order, with a distance buffer of the same capacity to score into. An
// Allow bitmap is walked word by word — zero words cost one load per 64
// rows and set bits are peeled with TrailingZeros64 — so a selective
// allowlist is scanned in time proportional to its survivors, not to
// the rows it spans; a Filter, alone or on top of Allow, is called once
// per candidate row. It polls done (from Params.Done) after every block
// and stops gathering once it has closed.
func forAdmitted(p *Params, lo, hi int, done <-chan struct{}, emit func(ids []int32, dist []float32)) {
	buf := getGatherBuf()
	defer gatherPool.Put(buf)
	ids, dist := buf.ids[:0], buf.dist[:scanBlock]
	stop := Stopped(done)
	add := func(id int) {
		ids = append(ids, int32(id))
		if len(ids) == scanBlock {
			emit(ids, dist)
			ids = ids[:0]
			stop = Stopped(done)
		}
	}
	if p.Allow == nil {
		for i := lo; i < hi && !stop; i++ {
			if p.Filter(int64(i)) {
				add(i)
			}
		}
	} else {
		if n := p.Allow.Len(); hi > n {
			hi = n // rows the bitmap does not cover are blocked
		}
		words := p.Allow.Words()
		for base := lo &^ 63; base < hi && !stop; base += 64 {
			w := words[base>>6]
			if base < lo {
				w &^= 1<<uint(lo-base) - 1
			}
			if hi-base < 64 {
				w &= 1<<uint(hi-base) - 1
			}
			for ; w != 0 && !stop; w &= w - 1 {
				id := base + bits.TrailingZeros64(w)
				if p.Filter == nil || p.Filter(int64(id)) {
					add(id)
				}
			}
		}
	}
	if len(ids) > 0 && !stop {
		emit(ids, dist)
	}
}

// SearchRange returns all ids within the distance threshold, the range
// query of Section 2.1(2). Like Search it partitions the scan across
// the worker pool; per-partition hit lists are concatenated in
// partition order, so the output stays sorted by ascending id at every
// worker count.
func (f *Flat) SearchRange(q []float32, radius float32, p Params) ([]topk.Result, error) {
	if len(q) != f.dim {
		return nil, fmt.Errorf("%w: query %d, index %d", ErrDim, len(q), f.dim)
	}
	w := f.workers(&p)
	if w <= 1 {
		out, work := f.rangeScan(q, radius, 0, f.n, &p)
		if p.Stats != nil {
			work.Record(p.Stats)
			p.Stats.Partitions++
		}
		return out, nil
	}
	obs.ParallelSearches.With("flat").Inc()
	offs := pool.Split(f.n, w)
	hitsBy := make([][]topk.Result, w)
	workBy := make([]ScanWork, w)
	pool.Default().Run(w, func(i int) {
		hitsBy[i], workBy[i] = f.rangeScan(q, radius, offs[i], offs[i+1], &p)
	})
	var out []topk.Result
	var work ScanWork
	for i := 0; i < w; i++ {
		out = append(out, hitsBy[i]...)
		work.Add(workBy[i])
	}
	if p.Stats != nil {
		work.Record(p.Stats)
		p.Stats.Partitions += int64(w)
	}
	return out, nil
}

// rangeScan is the per-partition body of SearchRange: block-score
// [lo, hi) within the radius and keep rows within it, in ascending id
// order. It also returns the rows it scored and how many of them the
// radius cut short.
func (f *Flat) rangeScan(q []float32, radius float32, lo, hi int, p *Params) (out []topk.Result, work ScanWork) {
	b := f.sc.Bind(q)
	if !p.Constrained() {
		buf := getGatherBuf()
		defer gatherPool.Put(buf)
		for blo := lo; blo < hi; blo += scanBlock {
			dist := buf.dist[:min(scanBlock, hi-blo)]
			work.Cut += int64(b.ScoreBlockWithin(blo, blo+len(dist), dist, radius))
			for i, d := range dist {
				if d <= radius {
					out = append(out, topk.Result{ID: int64(blo + i), Dist: d})
				}
			}
			work.Comps += int64(len(dist))
		}
		return out, work
	}
	forAdmitted(p, lo, hi, nil, func(ids []int32, dist []float32) {
		work.Cut += int64(b.ScoreIDsWithin(ids, dist, radius))
		for o, id := range ids {
			if d := dist[o]; d <= radius {
				out = append(out, topk.Result{ID: int64(id), Dist: d})
			}
		}
		work.Comps += int64(len(ids))
	})
	return out, work
}
