package index

import (
	"fmt"

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
// Scanning goes through a vec.Scorer in blocks of scanBlock rows
// (Scan): per-row state (cosine norms, the Mahalanobis pre-transform)
// is cached at construction and the inner loop is one block kernel call
// instead of scanBlock indirect function calls.
type Flat struct {
	dim int
	n   int
	sc  *vec.Scorer
	// qsc, when non-nil, is the compressed-scan kernel: Search scans
	// codes instead of floats, keeps the top rerank_k approximate
	// candidates, and re-scores them exactly with sc before the final
	// top-k cut. A windowed search always scans full precision
	// (Fanout.Window).
	qsc  vec.QuantScorer
	spec QuantSpec
}

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
// state with the caller (the executor keeps one scorer per collection
// snapshot across searches).
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

// Remap implements Remappable: the codes are shared, and only the
// scorer is rebound to data.
func (f *Flat) Remap(data []float32) (Index, bool) {
	f2 := *f
	if !Rebind(&f2.sc, data) {
		return nil, false
	}
	return &f2, true
}

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

// workers picks the partition count of a full-column scan under p: one
// part per minRowsPerPartition rows scored, up to the pool's width. The
// work is the rows actually scored: all of them, or an allowlist's
// survivors (one popcount pass — a 1 %-selective scan is not worth a
// second worker).
func (f *Flat) workers(p *Params) int {
	work := f.n
	if p.Allow != nil {
		work = p.Allow.Count()
	}
	return pool.Default().Effective((work + minRowsPerPartition - 1) / minRowsPerPartition)
}

// FiltersConcurrently reports whether a Search with these params would
// call p.Filter on more than one goroutine: whether it splits.
func (f *Flat) FiltersConcurrently(p Params) bool { return parts(f.workers(&p), f.n) > 1 }

// Search implements Index by exhaustive scan. With a predicate it
// degenerates to the "single-stage brute-force scan" plan the paper
// attributes to Qdrant/Vespa rule-based selection. The rows are split
// into contiguous ranges (Fanout), as many as workers says, and every
// block is scored within the collector's k-th distance (Scan).
func (f *Flat) Search(q []float32, k int, p Params) ([]topk.Result, error) {
	return f.SearchWindow(q, k, p, topk.Window{})
}

// SearchWindow is Search keeping the top k inside w (topk.Window), in
// one bounded scan: a radius answers the range query of Section
// 2.1(2), and a cursor the next page of a paged one (Section 2.6(5)).
// A windowed scan scores full precision even over a quantized index.
func (f *Flat) SearchWindow(q []float32, k int, p Params, w topk.Window) ([]topk.Result, error) {
	if err := CheckQuery(q, k, f.dim); err != nil {
		return nil, err
	}
	fan := Fanout{Name: "flat", Exact: f.sc, Tasks: f.n, Workers: f.workers(&p), Window: w}
	if f.qsc != nil && !w.Bounded() {
		fan.Quant = f.qsc
		fan.RerankK = f.spec.ResolveRerankK(p, k, f.n)
	}
	return fan.Search(q, k, &p, (*Scan).rows)
}

// SearchTail answers the rows an index over [0, from) does not cover:
// it scores the rows of [from, Size()) that p admits, exactly, into a
// collector already holding seed — the index probe's hits, at their
// exact distances — and returns the top k of both by (dist, id). The
// first block is cut at the probe's k-th distance. The tail is scanned
// in one part on the calling goroutine, as every scan inside or beside
// an index probe is (Fanout). Bits of p.Allow below from are never read.
func (f *Flat) SearchTail(q []float32, k int, p Params, from int, seed []topk.Result) ([]topk.Result, error) {
	if err := CheckQuery(q, k, f.dim); err != nil {
		return nil, err
	}
	rows := max(f.n-from, 0)
	fan := Fanout{Name: "flat", Exact: f.sc, Tasks: rows, Seed: seed}
	return fan.Search(q, k, &p, func(s *Scan, lo, hi int) { s.rows(from+lo, from+hi) })
}
