package vec

import (
	"math"
	"math/rand"
	"testing"
)

func randData(rng *rand.Rand, n, d int) []float32 {
	out := make([]float32, n*d)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b)
}

func relClose(a, b float32, tol float64) bool {
	da, db := float64(a), float64(b)
	diff := math.Abs(da - db)
	scale := math.Max(math.Abs(da), math.Abs(db))
	if scale < 1 {
		scale = 1
	}
	return diff <= tol*scale
}

// exactMetrics return, on every scorer path, the bits of the exported
// DistanceFunc: for L2 and inner product because the function and the
// paths are the same kernel (kernel_test.go holds that kernel to the
// portable loops), for L1/Linf/Hamming because the paths call the
// function. Cosine, a cached-state reformulation, is held to 1e-5
// relative.
var exactMetrics = []Metric{L2, InnerProduct, L1, Linf, Hamming}

func checkScore(t *testing.T, m Metric, got, want float32, path string) {
	t.Helper()
	if m == Cosine {
		if !relClose(got, want, 1e-5) {
			t.Fatalf("%s metric %v: got %v want %v", path, m, got, want)
		}
		return
	}
	if !sameBits(got, want) {
		t.Fatalf("%s metric %v: got %v (bits %x) want %v (bits %x)",
			path, m, got, math.Float32bits(got), want, math.Float32bits(want))
	}
}

// TestScorerMatchesScalar is the core property test: for every metric,
// ScoreAt / ScoreBlock / ScoreIDs / ScoreRows agree with the exported
// DistanceFunc on random data — bit-identically for
// L2/IP/L1/Linf/Hamming, within 1e-5 relative for cosine.
func TestScorerMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{1, 3, 7, 32, 65} {
		n := 103
		data := randData(rng, n, d)
		for _, m := range append(append([]Metric{}, exactMetrics...), Cosine) {
			sc, err := NewScorer(m, data, n, d)
			if err != nil {
				t.Fatalf("NewScorer(%v): %v", m, err)
			}
			fn := Distance(m)
			q := randData(rng, 1, d)
			b := sc.Bind(q)

			out := make([]float32, n)
			b.ScoreBlock(0, n, out)
			for i := 0; i < n; i++ {
				want := fn(q, data[i*d:(i+1)*d])
				checkScore(t, m, out[i], want, "ScoreBlock")
				checkScore(t, m, b.ScoreAt(i), want, "ScoreAt")
			}

			// Gather path over a shuffled id subset.
			ids := make([]int32, 0, n)
			for _, i := range rng.Perm(n)[:n/2+1] {
				ids = append(ids, int32(i))
			}
			got := make([]float32, len(ids))
			b.ScoreIDs(ids, got)
			for o, id := range ids {
				want := fn(q, data[int(id)*d:(int(id)+1)*d])
				checkScore(t, m, got[o], want, "ScoreIDs")
			}

			// Row-row path.
			for trial := 0; trial < 16; trial++ {
				i, j := rng.Intn(n), rng.Intn(n)
				want := fn(data[i*d:(i+1)*d], data[j*d:(j+1)*d])
				checkScore(t, m, sc.ScoreRows(i, j), want, "ScoreRows")
			}
		}
	}
}

// TestScorerBlockInvariance verifies that chunking a scan into blocks
// of any size yields bit-identical scores: the kernel scores each row
// on its own, in one accumulation order, so block boundaries cannot
// leak into the results.
func TestScorerBlockInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, d := 2053, 24
	data := randData(rng, n, d)
	q := randData(rng, 1, d)
	for _, m := range []Metric{L2, InnerProduct, Cosine, L1, Linf, Hamming} {
		sc, err := NewScorer(m, data, n, d)
		if err != nil {
			t.Fatal(err)
		}
		b := sc.Bind(q)
		ref := make([]float32, n)
		b.ScoreBlock(0, n, ref)
		for _, bs := range []int{1, 7, 64, 1024} {
			out := make([]float32, bs)
			for lo := 0; lo < n; lo += bs {
				hi := lo + bs
				if hi > n {
					hi = n
				}
				b.ScoreBlock(lo, hi, out)
				for i := lo; i < hi; i++ {
					if !sameBits(out[i-lo], ref[i]) {
						t.Fatalf("metric %v block %d row %d: %v != %v", m, bs, i, out[i-lo], ref[i])
					}
				}
			}
		}
	}
}

// TestCosineZeroVectors pins the zero-vector contract: a zero query or
// zero row scores exactly 1 (maximally dissimilar), never NaN, on both
// the scalar and every scorer path.
func TestCosineZeroVectors(t *testing.T) {
	d := 8
	zero := make([]float32, d)
	one := make([]float32, d)
	for i := range one {
		one[i] = 1
	}
	if got := CosineDistance(zero, one); got != 1 {
		t.Fatalf("CosineDistance(0, v) = %v, want 1", got)
	}
	if got := CosineDistance(one, zero); got != 1 {
		t.Fatalf("CosineDistance(v, 0) = %v, want 1", got)
	}
	if got := CosineDistance(zero, zero); got != 1 {
		t.Fatalf("CosineDistance(0, 0) = %v, want 1", got)
	}

	// Rows 0 and 2 are zero vectors.
	data := append(append(append([]float32{}, zero...), one...), zero...)
	sc, err := NewScorer(Cosine, data, 3, d)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range [][]float32{zero, one} {
		b := sc.Bind(q)
		out := make([]float32, 3)
		b.ScoreBlock(0, 3, out)
		for i := 0; i < 3; i++ {
			want := CosineDistance(q, data[i*d:(i+1)*d])
			if math.IsNaN(float64(out[i])) {
				t.Fatalf("ScoreBlock produced NaN at row %d", i)
			}
			if qi == 0 || i != 1 {
				// A zero vector on either side scores exactly 1 on
				// every path.
				if want != 1 || out[i] != 1 || b.ScoreAt(i) != 1 {
					t.Fatalf("zero-vector row %d: block %v at %v want exactly 1", i, out[i], b.ScoreAt(i))
				}
				continue
			}
			// Nonzero pair: cached-norm reformulation, 1e-5 contract.
			checkScore(t, Cosine, out[i], want, "ScoreBlock")
			checkScore(t, Cosine, b.ScoreAt(i), want, "ScoreAt")
		}
	}
	for _, pair := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if got := sc.ScoreRows(pair[0], pair[1]); got != 1 {
			t.Fatalf("ScoreRows(%d,%d) = %v, want 1", pair[0], pair[1], got)
		}
	}
}

// TestMahalanobisScorer checks the Cholesky pre-transform path against
// the exact quadratic form on a positive-definite matrix, and the
// scalar fallback (bit-identical) when the matrix is not factorable.
func TestMahalanobisScorer(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d, n := 6, 61
	m := spdMatrix(rng, d)
	mh, err := NewMahalanobis(m)
	if err != nil {
		t.Fatal(err)
	}
	data := randData(rng, n, d)
	sc, err := NewMahalanobisScorer(mh, data, n, d)
	if err != nil {
		t.Fatal(err)
	}
	if sc.chol == nil {
		t.Fatal("positive definite matrix did not factor")
	}
	q := randData(rng, 1, d)
	b := sc.Bind(q)
	out := make([]float32, n)
	b.ScoreBlock(0, n, out)
	for i := 0; i < n; i++ {
		want := mh.Distance(q, data[i*d:(i+1)*d])
		if !relClose(out[i], want, 1e-5) || !relClose(b.ScoreAt(i), want, 1e-5) {
			t.Fatalf("row %d: block %v at %v want %v", i, out[i], b.ScoreAt(i), want)
		}
	}
	for trial := 0; trial < 16; trial++ {
		i, j := rng.Intn(n), rng.Intn(n)
		want := mh.Distance(data[i*d:(i+1)*d], data[j*d:(j+1)*d])
		if !relClose(sc.ScoreRows(i, j), want, 1e-5) {
			t.Fatalf("ScoreRows(%d,%d) = %v want %v", i, j, sc.ScoreRows(i, j), want)
		}
	}

	// Indefinite matrix: Cholesky fails, scoring falls back to the
	// exact scalar form.
	bad := [][]float32{{0, 0}, {0, 1}}
	mhBad, err := NewMahalanobis(bad)
	if err != nil {
		t.Fatal(err)
	}
	data2 := randData(rng, 10, 2)
	sc2, err := NewMahalanobisScorer(mhBad, data2, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sc2.chol != nil {
		t.Fatal("non-PD matrix unexpectedly factored")
	}
	q2 := randData(rng, 1, 2)
	b2 := sc2.Bind(q2)
	out2 := make([]float32, 10)
	b2.ScoreBlock(0, 10, out2)
	for i := 0; i < 10; i++ {
		want := mhBad.Distance(q2, data2[i*2:(i+1)*2])
		if !sameBits(out2[i], want) {
			t.Fatalf("fallback row %d: %v want %v", i, out2[i], want)
		}
	}
}

// TestScorerExtendRefresh verifies incremental maintenance: extending
// row by row (the insert path) and refreshing after in-place updates
// both leave the scorer identical to a fresh build.
func TestScorerExtendRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d, n := 16, 50
	full := randData(rng, n, d)
	for _, m := range []Metric{L2, Cosine} {
		grown, err := NewScorer(m, nil, 0, d)
		if err != nil {
			t.Fatal(err)
		}
		var data []float32
		for i := 0; i < n; i++ {
			data = append(data, full[i*d:(i+1)*d]...)
			grown.Extend(data, i+1)
		}
		fresh, err := NewScorer(m, data, n, d)
		if err != nil {
			t.Fatal(err)
		}
		q := randData(rng, 1, d)
		got := make([]float32, n)
		want := make([]float32, n)
		grown.Bind(q).ScoreBlock(0, n, got)
		fresh.Bind(q).ScoreBlock(0, n, want)
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("metric %v extend row %d: %v != %v", m, i, got[i], want[i])
			}
		}

		// In-place overwrite + Refresh.
		copy(data[7*d:8*d], randData(rng, 1, d))
		grown.Refresh(7)
		fresh2, _ := NewScorer(m, data, n, d)
		g := grown.Bind(q).ScoreAt(7)
		w := fresh2.Bind(q).ScoreAt(7)
		if !sameBits(g, w) {
			t.Fatalf("metric %v refresh: %v != %v", m, g, w)
		}
	}
}

// TestMetricOf pins the DistanceFunc -> Metric resolution used by
// ScorerFor: canonical functions are recognized, wrappers are not.
func TestMetricOf(t *testing.T) {
	cases := []struct {
		fn DistanceFunc
		m  Metric
	}{
		{SquaredL2, L2},
		{NegInnerProduct, InnerProduct},
		{CosineDistance, Cosine},
		{ManhattanDistance, L1},
		{ChebyshevDistance, Linf},
		{HammingDistance, Hamming},
	}
	for _, c := range cases {
		m, ok := MetricOf(c.fn)
		if !ok || m != c.m {
			t.Fatalf("MetricOf: got (%v, %v), want (%v, true)", m, ok, c.m)
		}
	}
	wrapped := func(a, b []float32) float32 { return SquaredL2(a, b) }
	if _, ok := MetricOf(wrapped); ok {
		t.Fatal("wrapped function should not be recognized")
	}
	if _, ok := MetricOf(nil); ok {
		t.Fatal("nil function should not be recognized")
	}
}

// TestFuncScorer verifies the opaque-function path is bit-identical to
// calling the function per row, and that ScorerFor routes canonical
// functions to the specialized scorer.
func TestFuncScorer(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n, d := 40, 9
	data := randData(rng, n, d)
	weird := func(a, b []float32) float32 { return SquaredL2(a, b) + 1 }
	sc := ScorerFor(weird, data, n, d)
	if sc.Metric() != Metric(-1) {
		t.Fatalf("opaque scorer metric = %v", sc.Metric())
	}
	q := randData(rng, 1, d)
	out := make([]float32, n)
	sc.Bind(q).ScoreBlock(0, n, out)
	for i := 0; i < n; i++ {
		if !sameBits(out[i], weird(q, data[i*d:(i+1)*d])) {
			t.Fatalf("func scorer row %d mismatch", i)
		}
	}
	if fast := ScorerFor(CosineDistance, data, n, d); fast.Metric() != Cosine {
		t.Fatalf("ScorerFor(CosineDistance) metric = %v", fast.Metric())
	}
}

// TestScorerErrors covers constructor validation.
func TestScorerErrors(t *testing.T) {
	if _, err := NewScorer(Mahalanobis, nil, 0, 4); err == nil {
		t.Fatal("Mahalanobis via NewScorer should error")
	}
	if _, err := NewScorer(L2, make([]float32, 4), 2, 4); err == nil {
		t.Fatal("short data should error")
	}
	if _, err := NewScorer(L2, nil, 0, 0); err == nil {
		t.Fatal("zero dim should error")
	}
	if _, err := NewScorer(Metric(99), nil, 0, 4); err == nil {
		t.Fatal("unknown metric should error")
	}
	if _, err := NewMahalanobisScorer(nil, nil, 0, 2); err == nil {
		t.Fatal("nil matrix should error")
	}
}
