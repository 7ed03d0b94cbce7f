package vec

import "fmt"

// QuantScorer is the compressed-scan counterpart of Scorer: one per
// (metric, quantized dataset), scoring stored *codes* against a
// float32 query without decoding rows. Implementations precompute a
// per-query lookup table at Bind time so the per-row work is pure
// table gathers — the scan reads code bytes instead of float32s and
// becomes cache-resident for datasets whose float form is
// bandwidth-bound.
//
// Distances returned by a QuantBound are approximations of the true
// metric (quantization error of the codec, see DESIGN.md §12);
// callers that need exact results re-rank the top candidates with a
// full-precision Scorer over the retained float32 rows.
type QuantScorer interface {
	// Metric reports which metric the kernel approximates.
	Metric() Metric
	// Rows reports the number of encoded rows.
	Rows() int
	// Dim reports the dimensionality of the original vectors.
	Dim() int
	// BytesPerRow reports the resident scoring payload per row
	// (code bytes plus any cached per-row state), the numerator of
	// the compression ratio vs 4*Dim() float32 bytes.
	BytesPerRow() int
	// Bind precomputes per-query state (the LUT) and returns a bound
	// kernel sharing the Bound contract shape: ScoreAt / ScoreBlock /
	// ScoreIDs, so gather-block call sites switch between float and
	// quantized scans by configuration, not code.
	Bind(q []float32) QuantBound
}

// QuantBound is a QuantScorer bound to one query.
type QuantBound interface {
	// ScoreAt returns the approximate distance of row id.
	ScoreAt(id int) float32
	// ScoreBlock scores the contiguous rows [lo, hi) into out[:hi-lo].
	ScoreBlock(lo, hi int, out []float32)
	// ScoreIDs scores the gathered rows ids into out[:len(ids)].
	ScoreIDs(ids []int32, out []float32)
}

// Uncut gives a QuantBound the bounded entry points of Bound, so a scan
// that serves float and quantized kernels alike passes its bound
// through one shape. It scores every row in full and cuts none: a
// cut bound is only sound for exact scores.
type Uncut struct{ QuantBound }

// ScoreBlockWithin is ScoreBlock; the bound is ignored.
func (u Uncut) ScoreBlockWithin(lo, hi int, out []float32, _ float32) int {
	u.ScoreBlock(lo, hi, out)
	return 0
}

// ScoreIDsWithin is ScoreIDs; the bound is ignored.
func (u Uncut) ScoreIDsWithin(ids []int32, out []float32, _ float32) int {
	u.ScoreIDs(ids, out)
	return 0
}

// SQ8Scorer is the int8 scalar-quantization kernel: rows are stored
// as one byte per dimension (code c in dimension j reconstructs to
// min[j] + c*step[j]) and each query binds a d×256 LUT holding that
// dimension's contribution for every possible byte, so a row's
// distance is d table lookups and adds — no decode, no multiply.
//
// Supported metrics: L2 (squared), InnerProduct, Cosine. Cosine
// additionally caches 1/||row|| of each *reconstructed* row at
// construction and folds it in after the dot-product gather.
type SQ8Scorer struct {
	metric  Metric
	n, d    int
	min     []float32 // len d: per-dimension range start
	step    []float32 // len d: per-dimension step, (max-min)/255
	codes   []byte    // len n*d, row-major
	invNorm []float32 // cosine only: 1/||reconstructed row||, len n
}

// NewSQ8Scorer wraps trained SQ ranges and encoded codes in a
// decode-free scan kernel. min/step must have length d and codes
// length n*d. Metrics other than L2/InnerProduct/Cosine are rejected:
// their distances do not decompose into per-(dimension, byte) terms.
func NewSQ8Scorer(m Metric, min, step []float32, codes []byte, n, d int) (*SQ8Scorer, error) {
	switch m {
	case L2, InnerProduct, Cosine:
	default:
		return nil, fmt.Errorf("vec: sq8 kernel does not support metric %v", m)
	}
	if len(min) != d || len(step) != d {
		return nil, fmt.Errorf("vec: sq8 ranges have %d/%d dims, want %d", len(min), len(step), d)
	}
	if len(codes) != n*d {
		return nil, fmt.Errorf("vec: sq8 codes hold %d bytes, want %d", len(codes), n*d)
	}
	s := &SQ8Scorer{metric: m, n: n, d: d, min: min, step: step, codes: codes}
	if m == Cosine {
		s.invNorm = make([]float32, n)
		row := make([]float32, d)
		for i := 0; i < n; i++ {
			code := codes[i*d : (i+1)*d]
			for j, c := range code {
				row[j] = min[j] + float32(c)*step[j]
			}
			s.invNorm[i] = invNormOf(row)
		}
	}
	return s, nil
}

// Metric implements QuantScorer.
func (s *SQ8Scorer) Metric() Metric { return s.metric }

// Rows implements QuantScorer.
func (s *SQ8Scorer) Rows() int { return s.n }

// Dim implements QuantScorer.
func (s *SQ8Scorer) Dim() int { return s.d }

// BytesPerRow implements QuantScorer: one code byte per dimension,
// plus the cached inverse norm under cosine.
func (s *SQ8Scorer) BytesPerRow() int {
	if s.metric == Cosine {
		return s.d + 4
	}
	return s.d
}

// Bind implements QuantScorer. The LUT is laid out dimension-major
// (lut[j*256+c]) so a row scan walks it in the same order it walks
// the code bytes. For L2 each entry is (q[j]-recon)²; for IP and
// cosine it is the (negated / raw) partial dot product with the
// reconstructed value, and cosine finishes with the cached row norm
// and the query norm.
func (s *SQ8Scorer) Bind(q []float32) QuantBound {
	b := &sq8Bound{s: s, lut: make([]float32, s.d*256)}
	switch s.metric {
	case L2:
		for j := 0; j < s.d; j++ {
			e := q[j] - s.min[j]
			st := s.step[j]
			row := b.lut[j*256 : (j+1)*256]
			for c := range row {
				diff := e - float32(c)*st
				row[c] = diff * diff
			}
		}
	case InnerProduct:
		// NegInnerProduct: accumulate -q[j]*recon directly so the
		// gather sum is the final distance.
		for j := 0; j < s.d; j++ {
			qj := q[j]
			mn, st := s.min[j], s.step[j]
			row := b.lut[j*256 : (j+1)*256]
			for c := range row {
				row[c] = -qj * (mn + float32(c)*st)
			}
		}
	case Cosine:
		for j := 0; j < s.d; j++ {
			qj := q[j]
			mn, st := s.min[j], s.step[j]
			row := b.lut[j*256 : (j+1)*256]
			for c := range row {
				row[c] = qj * (mn + float32(c)*st)
			}
		}
		b.qInv = invNormOf(q)
	}
	return b
}

type sq8Bound struct {
	s    *SQ8Scorer
	lut  []float32 // d*256, dimension-major
	qInv float32   // cosine: 1/||q||
}

// gather sums the LUT entries selected by one row's code bytes. Four
// independent accumulators hide the gather latency; the tail loop
// folds into acc0 so the result is deterministic for a given layout.
func (b *sq8Bound) gather(code []byte) float32 {
	lut := b.lut
	var a0, a1, a2, a3 float32
	j := 0
	for ; j+4 <= len(code); j += 4 {
		a0 += lut[j<<8|int(code[j])]
		a1 += lut[(j+1)<<8|int(code[j+1])]
		a2 += lut[(j+2)<<8|int(code[j+2])]
		a3 += lut[(j+3)<<8|int(code[j+3])]
	}
	for ; j < len(code); j++ {
		a0 += lut[j<<8|int(code[j])]
	}
	return (a0 + a1) + (a2 + a3)
}

// gather2 scores two rows in one pass, interleaving their lookups so
// eight loads are in flight instead of four — the LUT exceeds L1, and
// a single row's four dependency chains leave the load pipeline
// underfed. Each row keeps the same four accumulators receiving the
// same adds in the same order as gather, so a score is bit-identical
// whichever entry point computed it.
func (b *sq8Bound) gather2(c0, c1 []byte) (float32, float32) {
	lut := b.lut
	var a0, a1, a2, a3 float32
	var b0, b1, b2, b3 float32
	j := 0
	for ; j+4 <= len(c0); j += 4 {
		a0 += lut[j<<8|int(c0[j])]
		b0 += lut[j<<8|int(c1[j])]
		a1 += lut[(j+1)<<8|int(c0[j+1])]
		b1 += lut[(j+1)<<8|int(c1[j+1])]
		a2 += lut[(j+2)<<8|int(c0[j+2])]
		b2 += lut[(j+2)<<8|int(c1[j+2])]
		a3 += lut[(j+3)<<8|int(c0[j+3])]
		b3 += lut[(j+3)<<8|int(c1[j+3])]
	}
	for ; j < len(c0); j++ {
		a0 += lut[j<<8|int(c0[j])]
		b0 += lut[j<<8|int(c1[j])]
	}
	return (a0 + a1) + (a2 + a3), (b0 + b1) + (b2 + b3)
}

func (b *sq8Bound) finish(id int, sum float32) float32 {
	if b.s.metric == Cosine {
		// Zero rows/queries score 1, matching CosineDistance.
		return 1 - sum*b.s.invNorm[id]*b.qInv
	}
	return sum
}

// ScoreAt implements QuantBound.
func (b *sq8Bound) ScoreAt(id int) float32 {
	d := b.s.d
	return b.finish(id, b.gather(b.s.codes[id*d:(id+1)*d]))
}

// ScoreBlock implements QuantBound. Rows are scored pairwise through
// gather2; results match ScoreAt bit-exactly.
func (b *sq8Bound) ScoreBlock(lo, hi int, out []float32) {
	d := b.s.d
	codes := b.s.codes
	i := lo
	for ; i+2 <= hi; i += 2 {
		s0, s1 := b.gather2(codes[i*d:(i+1)*d], codes[(i+1)*d:(i+2)*d])
		out[i-lo] = b.finish(i, s0)
		out[i-lo+1] = b.finish(i+1, s1)
	}
	for ; i < hi; i++ {
		out[i-lo] = b.finish(i, b.gather(codes[i*d:(i+1)*d]))
	}
}

// ScoreIDs implements QuantBound. Gathered rows pair up the same way.
func (b *sq8Bound) ScoreIDs(ids []int32, out []float32) {
	d := b.s.d
	codes := b.s.codes
	i := 0
	for ; i+2 <= len(ids); i += 2 {
		id0, id1 := int(ids[i]), int(ids[i+1])
		s0, s1 := b.gather2(codes[id0*d:(id0+1)*d], codes[id1*d:(id1+1)*d])
		out[i] = b.finish(id0, s0)
		out[i+1] = b.finish(id1, s1)
	}
	for ; i < len(ids); i++ {
		id := int(ids[i])
		out[i] = b.finish(id, b.gather(codes[id*d:(id+1)*d]))
	}
}
