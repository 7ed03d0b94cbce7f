package vec

// The batched scoring engine. Every hot scan in the system used to pay
// an indirect DistanceFunc call per candidate, and metrics with
// per-vector state (the norms of cosine, the L-transform of
// Mahalanobis) recomputed that state on every comparison. A Scorer is
// built once per (metric, dataset): it precomputes per-row state —
// inverse norms for cosine, the Cholesky pre-transform for Mahalanobis
// — and scores a contiguous block with one call into the process's
// scoring kernel (kernel.go; the SIMD distance kernel of Section 2.3
// where the CPU has AVX), the loop over rows inside it.
//
// Numeric contract. Every path returns the same bits for the same
// (query, row): SquaredL2/Dot, ScoreAt, ScoreBlock at any block split,
// ScoreIDs and ScoreRows all reach the same kernel, which
// has exactly one per-row accumulation order — so a result does not
// depend on block size, worker count, or whether the rows live on the
// heap or in a mapping. The two kernels (assembly and portable) share
// that order, so it does not depend on the machine or the purego tag
// either; the kernel tests pin assembly == portable bit for bit
// (NaN compares as NaN, whatever its payload) for every length 0..257.
// For L2, inner product, L1, Linf and Hamming this also means
// bit-for-bit agreement with the exported DistanceFunc. Cosine and
// Mahalanobis use cached per-row state, so against the scalar
// CosineDistance / Mahalanobis2.Distance they agree only to ~1e-7
// relative error; callers that mix those paths must tolerate that (the
// property tests pin 1e-5).
//
// Zero-vector contract (cosine): a zero row or zero query caches an
// inverse norm of 0, so every score against it is exactly 1 —
// matching CosineDistance, which defines zero vectors as maximally
// dissimilar instead of producing NaN.

import (
	"fmt"
	"math"
	"reflect"
)

// Scorer scores queries against the rows of a row-major dataset with
// per-row state precomputed at construction. Methods that score are
// safe for concurrent use; Extend and Refresh require the same
// external synchronization as writes to the underlying data.
type Scorer struct {
	metric Metric
	dim    int
	n      int
	data   []float32

	// invNorm caches 1/||row|| for cosine (0 for zero rows).
	invNorm []float32

	// Mahalanobis state: mh is the scalar fallback; when the matrix
	// admits a Cholesky factorization M = L·Lᵀ, chol holds T = Lᵀ
	// (upper triangular, row-major) and trows the transformed rows, so
	// scoring reduces to SquaredL2 in the transformed space.
	mh    *Mahalanobis2
	chol  []float32
	trows []float32

	// fn, when set, makes this an opaque per-row scorer (metric is -1).
	fn DistanceFunc
}

// NewScorer builds a scorer for a basic metric over n row-major
// vectors of dimension d. n may be 0 (grow later via Extend).
// Mahalanobis carries state and must use NewMahalanobisScorer.
func NewScorer(m Metric, data []float32, n, d int) (*Scorer, error) {
	if d <= 0 {
		return nil, fmt.Errorf("vec: scorer dimension must be positive")
	}
	if n < 0 || len(data) < n*d {
		return nil, fmt.Errorf("vec: scorer data %d shorter than n*d %d", len(data), n*d)
	}
	switch m {
	case L2, InnerProduct, Cosine, L1, Linf, Hamming:
	case Mahalanobis:
		return nil, fmt.Errorf("vec: Mahalanobis scorer requires NewMahalanobisScorer")
	default:
		return nil, fmt.Errorf("vec: unknown metric %v", m)
	}
	s := &Scorer{metric: m, dim: d, data: data}
	s.extendState(data, n)
	return s, nil
}

// NewMahalanobisScorer builds a scorer for a learned quadratic-form
// distance. When M is positive definite the rows are pre-transformed
// by the Cholesky factor (so each score is one SquaredL2 instead of a
// d×d quadratic form); otherwise scoring falls back to the exact
// scalar form per row.
func NewMahalanobisScorer(mh *Mahalanobis2, data []float32, n, d int) (*Scorer, error) {
	if mh == nil {
		return nil, fmt.Errorf("vec: nil Mahalanobis matrix")
	}
	if d != mh.Dim() {
		return nil, fmt.Errorf("vec: scorer dim %d, matrix dim %d", d, mh.Dim())
	}
	if n < 0 || len(data) < n*d {
		return nil, fmt.Errorf("vec: scorer data %d shorter than n*d %d", len(data), n*d)
	}
	s := &Scorer{metric: Mahalanobis, dim: d, data: data, mh: mh, chol: cholUpper(mh.m, d)}
	s.extendState(data, n)
	return s, nil
}

// NewFuncScorer wraps an opaque DistanceFunc: no per-row state, every
// score is one scalar call. It exists so callers can route every scan
// through the Scorer API and still accept user-supplied distances;
// results are bit-identical to calling fn per row.
func NewFuncScorer(fn DistanceFunc, data []float32, n, d int) *Scorer {
	return &Scorer{metric: Metric(-1), dim: d, n: n, data: data, fn: fn}
}

// ScorerFor resolves fn to a metric-specialized scorer when fn is one
// of this package's canonical distance functions, and falls back to an
// opaque per-row scorer otherwise. It is the bridge for APIs that
// historically accepted a bare DistanceFunc.
func ScorerFor(fn DistanceFunc, data []float32, n, d int) *Scorer {
	if m, ok := MetricOf(fn); ok {
		s, err := NewScorer(m, data, n, d)
		if err == nil {
			return s
		}
	}
	return NewFuncScorer(fn, data, n, d)
}

// MetricOf reports which basic metric fn implements, matching against
// this package's canonical functions by identity. Wrapped or
// user-supplied functions are not recognized.
func MetricOf(fn DistanceFunc) (Metric, bool) {
	if fn == nil {
		return 0, false
	}
	switch reflect.ValueOf(fn).Pointer() {
	case reflect.ValueOf(SquaredL2).Pointer():
		return L2, true
	case reflect.ValueOf(NegInnerProduct).Pointer():
		return InnerProduct, true
	case reflect.ValueOf(CosineDistance).Pointer():
		return Cosine, true
	case reflect.ValueOf(ManhattanDistance).Pointer():
		return L1, true
	case reflect.ValueOf(ChebyshevDistance).Pointer():
		return Linf, true
	case reflect.ValueOf(HammingDistance).Pointer():
		return Hamming, true
	}
	return 0, false
}

// Metric returns the metric this scorer specializes (-1 for opaque
// func scorers).
func (s *Scorer) Metric() Metric { return s.metric }

// Dim returns the vector dimensionality.
func (s *Scorer) Dim() int { return s.dim }

// Rows returns the number of scoreable rows.
func (s *Scorer) Rows() int { return s.n }

// Data returns the backing row-major matrix (first Rows()*Dim()
// entries are valid). Callers must not mutate it without Refresh.
func (s *Scorer) Data() []float32 { return s.data }

// Extend re-points the scorer at the (possibly reallocated) backing
// array and computes per-row state for rows [Rows(), n) — the
// incremental maintenance hook for append-style inserts. n < Rows()
// truncates.
func (s *Scorer) Extend(data []float32, n int) {
	if len(data) < n*s.dim {
		panic(fmt.Sprintf("vec: Extend data %d shorter than n*d %d", len(data), n*s.dim))
	}
	s.extendState(data, n)
}

func (s *Scorer) extendState(data []float32, n int) {
	old := s.n
	s.data = data
	s.n = n
	d := s.dim
	switch {
	case s.fn != nil:
	case s.metric == Cosine:
		if n <= old {
			s.invNorm = s.invNorm[:n]
			break
		}
		for len(s.invNorm) < n {
			i := len(s.invNorm)
			s.invNorm = append(s.invNorm, invNormOf(data[i*d:(i+1)*d]))
		}
	case s.metric == Mahalanobis && s.chol != nil:
		if n <= old {
			s.trows = s.trows[:n*d]
			break
		}
		if cap(s.trows) < n*d {
			grown := make([]float32, old*d, n*d)
			copy(grown, s.trows)
			s.trows = grown
		}
		s.trows = s.trows[:n*d]
		for i := old; i < n; i++ {
			s.transform(data[i*d:(i+1)*d], s.trows[i*d:(i+1)*d])
		}
	}
}

// View returns an immutable snapshot of the scorer pinned at the
// current row count: a shallow copy whose slice headers keep pointing
// at today's backing arrays. Appending to the original via Extend
// never changes what the view scores (appends land past the pinned
// prefix, or reallocate and leave the old arrays behind), so a view
// can be scored against lock-free while the original keeps growing.
// In-place mutation (Refresh) is NOT isolated — callers that update
// rows in place must copy the data and build a fresh scorer instead.
func (s *Scorer) View() *Scorer {
	v := *s
	return &v
}

// Refresh recomputes row id's cached state after an in-place
// overwrite of the underlying vector.
func (s *Scorer) Refresh(id int) {
	if id < 0 || id >= s.n {
		panic(fmt.Sprintf("vec: Refresh id %d out of range [0,%d)", id, s.n))
	}
	d := s.dim
	switch {
	case s.metric == Cosine:
		s.invNorm[id] = invNormOf(s.data[id*d : (id+1)*d])
	case s.metric == Mahalanobis && s.chol != nil:
		s.transform(s.data[id*d:(id+1)*d], s.trows[id*d:(id+1)*d])
	}
}

// invNormOf returns 1/||v|| (0 for the zero vector), the cached
// cosine row state.
func invNormOf(v []float32) float32 {
	nn := Dot(v, v)
	if nn == 0 {
		return 0
	}
	return float32(1 / math.Sqrt(float64(nn)))
}

// cosineOf turns a dot product and the two cached inverse norms into a
// cosine distance; every cosine path goes through this one expression.
// The norms multiply first, so swapping them — ScoreRows(i, j) against
// ScoreRows(j, i) — rounds the same.
func cosineOf(dp, invA, invB float32) float32 { return 1 - dp*(invA*invB) }

// ScoreAt scores row id against q. One-shot convenience; loops should
// Bind once and use the bound scorer.
func (s *Scorer) ScoreAt(q []float32, id int) float32 { return s.Bind(q).ScoreAt(id) }

// ScoreBlock scores the contiguous rows [lo, hi) against q into
// out[:hi-lo]. One-shot convenience over Bind.
func (s *Scorer) ScoreBlock(q []float32, lo, hi int, out []float32) {
	s.Bind(q).ScoreBlock(lo, hi, out)
}

// ScoreRows scores two stored rows against each other using cached
// state on both sides (graph edge pruning: robust-prune compares
// candidate pairs, not query-row pairs). It returns the bits of
// Bind(row i).ScoreAt(j).
func (s *Scorer) ScoreRows(i, j int) float32 {
	d := s.dim
	ri := s.data[i*d : (i+1)*d]
	rj := s.data[j*d : (j+1)*d]
	switch {
	case s.fn != nil:
		return s.fn(ri, rj)
	case s.metric == L2:
		return SquaredL2(ri, rj)
	case s.metric == InnerProduct:
		return -Dot(ri, rj)
	case s.metric == Cosine:
		return cosineOf(Dot(ri, rj), s.invNorm[j], s.invNorm[i])
	case s.metric == L1:
		return ManhattanDistance(ri, rj)
	case s.metric == Linf:
		return ChebyshevDistance(ri, rj)
	case s.metric == Hamming:
		return HammingDistance(ri, rj)
	case s.chol != nil:
		return SquaredL2(s.trows[i*d:(i+1)*d], s.trows[j*d:(j+1)*d])
	default:
		return s.mh.Distance(ri, rj)
	}
}

// Bound is a scorer with per-query state resolved once (the query's
// inverse norm for cosine, its pre-transform for Mahalanobis), so the
// ScoreIDs and ScoreAt calls of a graph traversal pay no per-call
// setup. A Bound is a value; copying it is cheap and safe.
type Bound struct {
	s    *Scorer
	q    []float32
	qInv float32   // cosine: 1/||q||, 0 for a zero query
	tq   []float32 // Mahalanobis: Lᵀq
}

// Bind precomputes the per-query scoring state for q.
func (s *Scorer) Bind(q []float32) Bound {
	b := Bound{s: s, q: q}
	switch {
	case s.fn != nil:
	case s.metric == Cosine:
		b.qInv = invNormOf(q)
	case s.metric == Mahalanobis && s.chol != nil:
		b.tq = make([]float32, s.dim)
		s.transform(q, b.tq)
	}
	return b
}

// ScoreAt returns the distance from the bound query to row id.
func (b Bound) ScoreAt(id int) float32 {
	s := b.s
	d := s.dim
	row := s.data[id*d : (id+1)*d]
	switch {
	case s.fn != nil:
		return s.fn(b.q, row)
	case s.metric == L2:
		return SquaredL2(b.q, row)
	case s.metric == InnerProduct:
		return -Dot(b.q, row)
	case s.metric == Cosine:
		return cosineOf(Dot(b.q, row), s.invNorm[id], b.qInv)
	case s.metric == L1:
		return ManhattanDistance(b.q, row)
	case s.metric == Linf:
		return ChebyshevDistance(b.q, row)
	case s.metric == Hamming:
		return HammingDistance(b.q, row)
	case s.chol != nil:
		return SquaredL2(b.tq, s.trows[id*d:(id+1)*d])
	default:
		return s.mh.Distance(b.q, row)
	}
}

// ScoreBlock scores the contiguous rows [lo, hi) into out[:hi-lo], bit
// for bit what ScoreAt returns for each row, so results are independent
// of how a scan is chunked into blocks.
func (b Bound) ScoreBlock(lo, hi int, out []float32) { b.ScoreBlockWithin(lo, hi, out, inf) }

// ScoreBlockWithin is ScoreBlock for a caller that drops every score
// above bound — a top-k scan at its collector's k-th distance, a range
// scan at its radius. Under L2 and the factored Mahalanobis form, whose
// scores are sums of squares, a row whose partial sum passes bound is
// cut (kernel.go): out holds that partial sum, some value above bound,
// and the row is counted in the returned cut. Every other row gets
// ScoreAt's bits. The other metrics score every row in full and cut
// nothing: an inner-product or cosine term has no sign, and L1, Linf
// and Hamming have no kernel. An infinite bound is ScoreBlock.
func (b Bound) ScoreBlockWithin(lo, hi int, out []float32, bound float32) (cut int) {
	s := b.s
	d := s.dim
	out = out[:hi-lo]
	switch {
	case s.metric == L2:
		return l2Rows(b.q, s.data[lo*d:hi*d], out, bound)
	case s.metric == InnerProduct:
		dotRows(b.q, s.data[lo*d:hi*d], out)
		for i, dp := range out {
			out[i] = -dp
		}
	case s.metric == Cosine:
		dotRows(b.q, s.data[lo*d:hi*d], out)
		inv := s.invNorm[lo:hi]
		for i, dp := range out {
			out[i] = cosineOf(dp, inv[i], b.qInv)
		}
	case s.metric == Mahalanobis && s.chol != nil:
		return l2Rows(b.tq, s.trows[lo*d:hi*d], out, bound)
	default:
		// L1/Linf/Hamming, the exact Mahalanobis form and opaque funcs
		// (metric -1) have no kernel; the block still amortizes dispatch
		// to one direct call per row.
		for i := range out {
			out[i] = b.ScoreAt(lo + i)
		}
	}
	return 0
}

// ScoreIDs scores a gather list: out[i] = dist(q, row ids[i]), bit for
// bit what ScoreAt returns for each id. Used by scans whose candidates
// are not contiguous (a graph node's neighbour list, inverted lists,
// hash buckets and tree leaves, filtered scans); the rows are
// scattered, so the kernel prefetches ahead along ids.
func (b Bound) ScoreIDs(ids []int32, out []float32) { b.ScoreIDsWithin(ids, out, inf) }

// ScoreIDsWithin is ScoreIDs under a bound, as ScoreBlockWithin is
// ScoreBlock under one.
func (b Bound) ScoreIDsWithin(ids []int32, out []float32, bound float32) (cut int) {
	s := b.s
	out = out[:len(ids)]
	switch {
	case s.metric == L2:
		return l2Gather(b.q, s.data, ids, out, bound)
	case s.metric == InnerProduct:
		dotGather(b.q, s.data, ids, out)
		for i, dp := range out {
			out[i] = -dp
		}
	case s.metric == Cosine:
		dotGather(b.q, s.data, ids, out)
		for i, dp := range out {
			out[i] = cosineOf(dp, s.invNorm[ids[i]], b.qInv)
		}
	case s.metric == Mahalanobis && s.chol != nil:
		return l2Gather(b.tq, s.trows, ids, out, bound)
	default:
		for i, id := range ids {
			out[i] = b.ScoreAt(int(id))
		}
	}
	return 0
}

// inf is the bound that cuts nothing.
var inf = float32(math.Inf(1))

// transform computes dst = Lᵀ·v (the Cholesky pre-transform), with
// float64 accumulation so transformed-space distances stay within
// ~1e-6 relative of the exact quadratic form.
func (s *Scorer) transform(v, dst []float32) {
	d := s.dim
	for r := 0; r < d; r++ {
		row := s.chol[r*d : (r+1)*d]
		var acc float64
		for j := r; j < d; j++ {
			acc += float64(row[j]) * float64(v[j])
		}
		dst[r] = float32(acc)
	}
}

// cholUpper factors M = L·Lᵀ and returns T = Lᵀ (upper triangular,
// row-major), or nil when M is not positive definite — the caller
// then falls back to the exact quadratic form per row.
func cholUpper(m [][]float32, d int) []float32 {
	l := make([]float64, d*d)
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			sum := float64(m[i][j])
			for k := 0; k < j; k++ {
				sum -= l[i*d+k] * l[j*d+k]
			}
			if i == j {
				if sum <= 0 {
					return nil
				}
				l[i*d+i] = math.Sqrt(sum)
			} else {
				l[i*d+j] = sum / l[j*d+j]
			}
		}
	}
	t := make([]float32, d*d)
	for r := 0; r < d; r++ {
		for j := r; j < d; j++ {
			t[r*d+j] = float32(l[j*d+r])
		}
	}
	return t
}
