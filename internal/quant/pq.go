package quant

import (
	"errors"
	"fmt"

	"vdbms/internal/kmeans"
	"vdbms/internal/vec"
)

// PQ is a product quantizer (Jégou et al.): the d-dimensional space is
// split into M contiguous subspaces of d/M dimensions, each quantized
// by its own Ks-centroid codebook. A vector is encoded as M sub-codes,
// compressing float32 storage by a factor of 4*d / (M * log2(Ks)/8).
type PQ struct {
	Dim  int
	M    int // number of subquantizers
	Ks   int // centroids per subquantizer (power of two, <= 256)
	Dsub int // Dim / M
	// Codebooks[m] is row-major Ks x Dsub.
	Codebooks [][]float32
}

// ErrConfig is wrapped by the error TrainPQ returns for an M or Ks the
// data cannot take: M must divide the dimension and Ks be a power of
// two up to 256.
var ErrConfig = errors.New("quant: bad product quantizer shape")

// PQConfig controls TrainPQ.
type PQConfig struct {
	M       int   // subquantizers; must divide the dimension
	Ks      int   // centroids per subquantizer; default 256
	MaxIter int   // k-means iterations; default 25
	Seed    int64 // RNG seed; default 1
}

// TrainPQ learns codebooks from n row-major training vectors.
func TrainPQ(data []float32, n, d int, cfg PQConfig) (*PQ, error) {
	if cfg.Ks == 0 {
		cfg.Ks = 256
	}
	if cfg.M <= 0 || d%cfg.M != 0 {
		return nil, fmt.Errorf("%w: M=%d must divide dim %d", ErrConfig, cfg.M, d)
	}
	if !isPow2(cfg.Ks) || cfg.Ks > 256 {
		return nil, fmt.Errorf("%w: Ks=%d must be a power of two <= 256", ErrConfig, cfg.Ks)
	}
	if n == 0 || len(data) != n*d {
		return nil, fmt.Errorf("quant: bad PQ training shape n=%d d=%d len=%d", n, d, len(data))
	}
	pq := &PQ{Dim: d, M: cfg.M, Ks: cfg.Ks, Dsub: d / cfg.M}
	pq.Codebooks = make([][]float32, cfg.M)
	sub := make([]float32, n*pq.Dsub)
	for m := 0; m < cfg.M; m++ {
		for i := 0; i < n; i++ {
			copy(sub[i*pq.Dsub:(i+1)*pq.Dsub], data[i*d+m*pq.Dsub:i*d+(m+1)*pq.Dsub])
		}
		res, err := kmeans.Train(sub, n, pq.Dsub, kmeans.Config{
			K: cfg.Ks, MaxIter: cfg.MaxIter, Seed: cfg.Seed + int64(m),
		})
		if err != nil {
			return nil, fmt.Errorf("quant: subquantizer %d: %w", m, err)
		}
		// If n < Ks the trainer clamps K; pad by repeating the last
		// centroid so codes stay in range.
		cb := make([]float32, cfg.Ks*pq.Dsub)
		copy(cb, res.Centroids)
		for c := res.K; c < cfg.Ks; c++ {
			copy(cb[c*pq.Dsub:(c+1)*pq.Dsub], cb[(res.K-1)*pq.Dsub:res.K*pq.Dsub])
		}
		pq.Codebooks[m] = cb
	}
	return pq, nil
}

// CodeSize returns the encoded size in bytes of one vector.
func (pq *PQ) CodeSize() int {
	if pq.Ks <= 16 {
		return (pq.M + 1) / 2 // 4-bit codes packed two per byte
	}
	return pq.M
}

// CompressionRatio returns the size reduction versus float32 storage.
func (pq *PQ) CompressionRatio() float64 {
	return float64(pq.Dim*4) / float64(pq.CodeSize())
}

// Encode maps v to its code (one byte per subquantizer; for Ks <= 16
// use PackCodes4 afterwards for the packed representation).
func (pq *PQ) Encode(v []float32, code []byte) []byte {
	if cap(code) < pq.M {
		code = make([]byte, pq.M)
	}
	code = code[:pq.M]
	for m := 0; m < pq.M; m++ {
		sub := v[m*pq.Dsub : (m+1)*pq.Dsub]
		cb := pq.Codebooks[m]
		best, bestD := 0, float32(0)
		for c := 0; c < pq.Ks; c++ {
			d := vec.SquaredL2(sub, cb[c*pq.Dsub:(c+1)*pq.Dsub])
			if c == 0 || d < bestD {
				best, bestD = c, d
			}
		}
		code[m] = byte(best)
	}
	return code
}

// Decode reconstructs the approximation encoded by code.
func (pq *PQ) Decode(code []byte, dst []float32) []float32 {
	if cap(dst) < pq.Dim {
		dst = make([]float32, pq.Dim)
	}
	dst = dst[:pq.Dim]
	for m := 0; m < pq.M; m++ {
		cb := pq.Codebooks[m]
		c := int(code[m])
		copy(dst[m*pq.Dsub:(m+1)*pq.Dsub], cb[c*pq.Dsub:(c+1)*pq.Dsub])
	}
	return dst
}

// ADCTable holds per-query lookup tables for asymmetric distance
// computation: Tab[m*Ks+c] = ||q_m - codebook_m[c]||^2. Summing one
// entry per subquantizer yields the (approximate) squared L2 distance
// from the raw query to an encoded vector.
type ADCTable struct {
	M, Ks int
	Tab   []float32
}

// ADC builds the asymmetric distance table for query q.
func (pq *PQ) ADC(q []float32) *ADCTable {
	t := &ADCTable{M: pq.M, Ks: pq.Ks, Tab: make([]float32, pq.M*pq.Ks)}
	for m := 0; m < pq.M; m++ {
		sub := q[m*pq.Dsub : (m+1)*pq.Dsub]
		cb := pq.Codebooks[m]
		row := t.Tab[m*pq.Ks : (m+1)*pq.Ks]
		for c := 0; c < pq.Ks; c++ {
			row[c] = vec.SquaredL2(sub, cb[c*pq.Dsub:(c+1)*pq.Dsub])
		}
	}
	return t
}

// Distance evaluates the table against one code.
func (t *ADCTable) Distance(code []byte) float32 {
	var s float32
	for m, c := range code {
		s += t.Tab[m*t.Ks+int(c)]
	}
	return s
}

// DistanceBatch scans a packed code matrix (M bytes per vector) and
// writes distances into out.
func (t *ADCTable) DistanceBatch(codes []byte, out []float32) {
	m := t.M
	for i := range out {
		out[i] = t.Distance(codes[i*m : (i+1)*m])
	}
}

// SDCTable holds symmetric distance tables: Tab[m][a][b] approximates
// the squared distance contribution when the query itself is encoded.
// SDC avoids the per-query table-building cost of ADC at the price of
// an extra quantization error on the query side; E4's variant measures
// that recall gap.
type SDCTable struct {
	M, Ks int
	Tab   []float32 // M * Ks * Ks
}

// SDC precomputes centroid-to-centroid tables; it is query independent
// and built once per codebook.
func (pq *PQ) SDC() *SDCTable {
	t := &SDCTable{M: pq.M, Ks: pq.Ks, Tab: make([]float32, pq.M*pq.Ks*pq.Ks)}
	for m := 0; m < pq.M; m++ {
		cb := pq.Codebooks[m]
		base := m * pq.Ks * pq.Ks
		for a := 0; a < pq.Ks; a++ {
			va := cb[a*pq.Dsub : (a+1)*pq.Dsub]
			for b := a; b < pq.Ks; b++ {
				d := vec.SquaredL2(va, cb[b*pq.Dsub:(b+1)*pq.Dsub])
				t.Tab[base+a*pq.Ks+b] = d
				t.Tab[base+b*pq.Ks+a] = d
			}
		}
	}
	return t
}

// Distance evaluates the symmetric distance between two codes.
func (t *SDCTable) Distance(qcode, code []byte) float32 {
	var s float32
	for m := range qcode {
		s += t.Tab[m*t.Ks*t.Ks+int(qcode[m])*t.Ks+int(code[m])]
	}
	return s
}

// MSE reports mean squared reconstruction error over n vectors.
func (pq *PQ) MSE(data []float32, n int) float64 {
	var s float64
	code := make([]byte, pq.M)
	rec := make([]float32, pq.Dim)
	for i := 0; i < n; i++ {
		row := data[i*pq.Dim : (i+1)*pq.Dim]
		code = pq.Encode(row, code)
		rec = pq.Decode(code, rec)
		for j := range row {
			d := float64(row[j] - rec[j])
			s += d * d
		}
	}
	return s / float64(n*pq.Dim)
}
