// Package vec provides the similarity-score layer of the VDBMS: basic
// scores (Hamming, inner product, cosine, Minkowski, Mahalanobis),
// aggregate scores for multi-vector entities, and learned scores.
//
// Throughout the system, similarity is expressed as a *distance*:
// smaller values mean more similar. Scores that are naturally
// "bigger is better" (inner product, cosine similarity) are negated or
// complemented so that every index and operator can order candidates
// by ascending distance.
package vec

import (
	"errors"
	"fmt"
	"math"
)

// Metric identifies a similarity score from Section 2.1 of the paper.
type Metric int

const (
	// L2 is squared Euclidean distance. Squaring preserves ranking and
	// avoids a sqrt per comparison; APIs that need the true metric can
	// call math.Sqrt on the result.
	L2 Metric = iota
	// InnerProduct orders by negative dot product (maximum inner
	// product search).
	InnerProduct
	// Cosine is cosine distance, 1 - cos(a, b).
	Cosine
	// L1 is Manhattan distance (Minkowski p=1).
	L1
	// Linf is Chebyshev distance (Minkowski p=inf).
	Linf
	// Hamming counts differing signs per dimension; it models binary
	// feature vectors stored as float32 slices.
	Hamming
	// Mahalanobis is a learned metric (x-y)^T M (x-y); the matrix M is
	// supplied via NewMahalanobis.
	Mahalanobis
)

// String returns the canonical lowercase name used by the CLI and the
// HTTP API.
func (m Metric) String() string {
	switch m {
	case L2:
		return "l2"
	case InnerProduct:
		return "ip"
	case Cosine:
		return "cosine"
	case L1:
		return "l1"
	case Linf:
		return "linf"
	case Hamming:
		return "hamming"
	case Mahalanobis:
		return "mahalanobis"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// ParseMetric converts a name accepted by String back to a Metric.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "l2", "euclidean":
		return L2, nil
	case "ip", "dot", "inner_product":
		return InnerProduct, nil
	case "cosine", "angular":
		return Cosine, nil
	case "l1", "manhattan":
		return L1, nil
	case "linf", "chebyshev":
		return Linf, nil
	case "hamming":
		return Hamming, nil
	case "mahalanobis":
		return Mahalanobis, nil
	}
	return 0, fmt.Errorf("vec: unknown metric %q", s)
}

// ErrDimMismatch is returned when two vectors of different
// dimensionality are compared.
var ErrDimMismatch = errors.New("vec: dimension mismatch")

// DistanceFunc computes the distance between two equal-length vectors.
type DistanceFunc func(a, b []float32) float32

// Distance returns the distance function for a basic metric. It panics
// for Mahalanobis, which carries state and must be built with
// NewMahalanobis.
func Distance(m Metric) DistanceFunc {
	switch m {
	case L2:
		return SquaredL2
	case InnerProduct:
		return NegInnerProduct
	case Cosine:
		return CosineDistance
	case L1:
		return ManhattanDistance
	case Linf:
		return ChebyshevDistance
	case Hamming:
		return HammingDistance
	case Mahalanobis:
		panic("vec: Mahalanobis requires NewMahalanobis(M)")
	default:
		panic("vec: unknown metric " + m.String())
	}
}

// SquaredL2 returns sum((a[i]-b[i])^2) over the len(a) leading elements
// (a b shorter than a panics). It runs on the process's scoring kernel
// (kernel.go): AVX assembly where the CPU has it — the SIMD distance
// kernel of Section 2.3 — and a four-accumulator scalar loop elsewhere,
// which the Go compiler does not vectorize. Both accumulate in the same
// order and return the same bits.
func SquaredL2(a, b []float32) float32 {
	var out [1]float32
	l2Rows(a, b, out[:], inf)
	return out[0]
}

// Dot returns the dot product of a and b, on the same kernel and with
// the same length rule as SquaredL2.
func Dot(a, b []float32) float32 {
	var out [1]float32
	dotRows(a, b, out[:])
	return out[0]
}

// NegInnerProduct returns -Dot(a, b) so that maximum inner product
// corresponds to minimum distance.
func NegInnerProduct(a, b []float32) float32 { return -Dot(a, b) }

// Norm returns the Euclidean norm of v.
func Norm(v []float32) float32 {
	return float32(math.Sqrt(float64(Dot(v, v))))
}

// CosineDistance returns 1 - cos(a,b). Zero vectors are treated as
// maximally dissimilar (distance 1) rather than NaN.
func CosineDistance(a, b []float32) float32 {
	var dot, na, nb float32
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/float32(math.Sqrt(float64(na)*float64(nb)))
}

// ManhattanDistance returns sum(|a[i]-b[i]|).
func ManhattanDistance(a, b []float32) float32 {
	var s float32
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

// ChebyshevDistance returns max(|a[i]-b[i]|).
func ChebyshevDistance(a, b []float32) float32 {
	var m float32
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// HammingDistance counts dimensions where the signs of a and b differ.
// Vectors produced by binary embeddings store each bit as ±1.
func HammingDistance(a, b []float32) float32 {
	var n float32
	for i := range a {
		if (a[i] >= 0) != (b[i] >= 0) {
			n++
		}
	}
	return n
}

// MinkowskiDistance returns the general p-norm distance. p must be
// >= 1; use ManhattanDistance/SquaredL2/ChebyshevDistance for the
// common cases, which are much faster.
func MinkowskiDistance(p float64) DistanceFunc {
	if p < 1 {
		panic("vec: Minkowski requires p >= 1")
	}
	return func(a, b []float32) float32 {
		var s float64
		for i := range a {
			d := math.Abs(float64(a[i] - b[i]))
			s += math.Pow(d, p)
		}
		return float32(math.Pow(s, 1/p))
	}
}

// Normalize scales v to unit Euclidean norm in place and returns it.
// The zero vector is returned unchanged.
func Normalize(v []float32) []float32 {
	n := Norm(v)
	if n == 0 {
		return v
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return v
}

// CheckDims validates that a and b have equal length.
func CheckDims(a, b []float32) error {
	if len(a) != len(b) {
		return fmt.Errorf("%w: %d vs %d", ErrDimMismatch, len(a), len(b))
	}
	return nil
}

// Mahalanobis2 is a learned quadratic-form distance (x-y)^T M (x-y)
// with M symmetric positive semi-definite. It implements the "learned
// score" category of Section 2.1.
type Mahalanobis2 struct {
	m   [][]float32 // row-major d x d
	dim int
}

// NewMahalanobis builds a Mahalanobis distance from the matrix M.
// M must be square; symmetry is the caller's responsibility (the
// learned-metric trainer in this package always produces symmetric M).
func NewMahalanobis(m [][]float32) (*Mahalanobis2, error) {
	d := len(m)
	for _, row := range m {
		if len(row) != d {
			return nil, fmt.Errorf("vec: Mahalanobis matrix is not square")
		}
	}
	return &Mahalanobis2{m: m, dim: d}, nil
}

// Dim returns the dimensionality M was built for.
func (mh *Mahalanobis2) Dim() int { return mh.dim }

// Distance computes (a-b)^T M (a-b).
func (mh *Mahalanobis2) Distance(a, b []float32) float32 {
	d := mh.dim
	diff := make([]float32, d)
	for i := 0; i < d; i++ {
		diff[i] = a[i] - b[i]
	}
	var s float32
	for i := 0; i < d; i++ {
		row := mh.m[i]
		var ri float32
		for j := 0; j < d; j++ {
			ri += row[j] * diff[j]
		}
		s += ri * diff[i]
	}
	return s
}

// Func adapts the Mahalanobis distance to a DistanceFunc.
func (mh *Mahalanobis2) Func() DistanceFunc { return mh.Distance }
