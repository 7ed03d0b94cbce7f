package vec

import (
	"math"
	"math/rand"
	"testing"
)

// sameScore is the tier contract: identical bits, except that a NaN
// only has to be a NaN (which operand's payload survives an operation
// on two NaNs is the hardware's choice).
func sameScore(a, b float32) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return sameBits(a, b)
}

// checkKernels holds the process's kernels to the portable ones on one
// (q, rows) input: the single-row entry points per row, and the block
// entry points over all rows at once.
func checkKernels(t *testing.T, what string, q, rows []float32, n int) {
	t.Helper()
	d := len(q)
	l2 := make([]float32, n)
	dp := make([]float32, n)
	l2Rows(q, rows, l2)
	dotRows(q, rows, dp)
	for i := 0; i < n; i++ {
		row := rows[i*d : (i+1)*d]
		wantL2, wantDot := squaredL2Generic(q, row), dotGeneric(q, row)
		for _, c := range []struct {
			name      string
			got, want float32
		}{
			{"SquaredL2", SquaredL2(q, row), wantL2},
			{"l2Rows", l2[i], wantL2},
			{"Dot", Dot(q, row), wantDot},
			{"dotRows", dp[i], wantDot},
		} {
			if !sameScore(c.got, c.want) {
				t.Fatalf("%s d=%d row %d: %s = %v (bits %x), portable %v (bits %x)", what, d, i,
					c.name, c.got, math.Float32bits(c.got), c.want, math.Float32bits(c.want))
			}
		}
	}
}

// TestKernelMatchesPortable pins the bound between the two tiers at
// zero: for every length 0..257 (all three tail shapes of the assembly
// at several trip counts) and every 4-byte start alignment in a 32-byte
// window, the process's kernel returns the bits of the portable loop.
// Under the purego tag both sides are the portable loop and the test
// only exercises the wrappers.
func TestKernelMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n = 5
	for d := 0; d <= 257; d++ {
		for off := 0; off < 8; off++ {
			q := randData(rng, 1, d+8)[off : off+d]
			rows := randData(rng, 1, n*d+8)[(7-off)&7:][:n*d]
			checkKernels(t, "random", q, rows, n)
		}
	}
}

// TestKernelSpecialValues covers the inputs on which a vectorized
// kernel most easily parts from a scalar one: zero vectors, signed
// zeros, infinities (whose differences and products make NaN), NaN,
// denormals, and magnitudes whose squares overflow or underflow.
func TestKernelSpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{0, negZero, 1, -1, inf, -inf, nan, 1e-45, -1e-45, 1e-39, 3e-20, 1e20, -3e38}
	rng := rand.New(rand.NewSource(31))
	for _, d := range []int{1, 3, 4, 7, 8, 9, 31, 32, 33, 128, 131} {
		zero := make([]float32, d)
		checkKernels(t, "zero", zero, make([]float32, 3*d), 3)
		checkKernels(t, "zero query", zero, randData(rng, 3, d), 3)
		for _, sp := range specials {
			for pos := 0; pos < d; pos++ {
				// The special value in the query, in a row, and in both at
				// the same position (Inf-Inf, NaN*NaN).
				q, rows := randData(rng, 1, d), randData(rng, 3, d)
				q[pos] = sp
				checkKernels(t, "special in query", q, rows, 3)
				q, rows = randData(rng, 1, d), randData(rng, 3, d)
				rows[d+pos] = sp
				checkKernels(t, "special in row", q, rows, 3)
				q[pos] = sp
				checkKernels(t, "special in both", q, rows, 3)
			}
		}
		// All-denormal vectors: every product underflows.
		q, rows := make([]float32, d), make([]float32, 3*d)
		for i := range q {
			q[i] = float32(rng.Intn(1000)+1) * 1e-45
		}
		for i := range rows {
			rows[i] = float32(rng.Intn(1000)+1) * -1e-45
		}
		checkKernels(t, "denormal", q, rows, 3)
	}
}

// TestKernelShortOperand pins where a length mismatch is caught: the
// kernels score len(a) elements, a longer b is ignored past that, and a
// shorter b panics on either tier instead of being read past its end.
func TestKernelShortOperand(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	long := append(append([]float32{}, a...), 100, 200)
	if got := SquaredL2(a, long); got != 0 {
		t.Fatalf("SquaredL2 read past len(a): %v", got)
	}
	if got, want := Dot(a, long), Dot(a, a); got != want {
		t.Fatalf("Dot read past len(a): %v want %v", got, want)
	}
	for name, fn := range map[string]func(){
		"SquaredL2": func() { SquaredL2(a, a[:8]) },
		"Dot":       func() { Dot(a, a[:8]) },
		"l2Rows":    func() { l2Rows(a, make([]float32, 2*len(a)-1), make([]float32, 2)) },
		"dotRows":   func() { dotRows(a, make([]float32, 2*len(a)-1), make([]float32, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with a short operand did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// spdMatrix returns A·Aᵀ + I, symmetric positive definite.
func spdMatrix(rng *rand.Rand, d int) [][]float32 {
	a := randData(rng, d, d)
	m := make([][]float32, d)
	for i := range m {
		m[i] = make([]float32, d)
		for j := range m[i] {
			var s float64
			for k := 0; k < d; k++ {
				s += float64(a[i*d+k]) * float64(a[j*d+k])
			}
			if i == j {
				s++
			}
			m[i][j] = float32(s)
		}
	}
	return m
}

// TestScorerPathConsistency is the numeric contract of scorer.go: for
// the four metrics served by the kernels, ScoreAt, ScoreBlock at every
// split of a 300-row range, ScoreIDs, ScoreRows and (where the metric
// has one) the exported scalar function return the same bits.
func TestScorerPathConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const n = 300
	for _, d := range []int{19, 128} {
		data := randData(rng, n, d)
		mh, err := NewMahalanobis(spdMatrix(rng, d))
		if err != nil {
			t.Fatal(err)
		}
		l2, _ := NewScorer(L2, data, n, d)
		ip, _ := NewScorer(InnerProduct, data, n, d)
		cos, _ := NewScorer(Cosine, data, n, d)
		mah, err := NewMahalanobisScorer(mh, data, n, d)
		if err != nil || mah.chol == nil {
			t.Fatalf("Mahalanobis scorer: %v (factored %v)", err, mah != nil && mah.chol != nil)
		}
		scalar := map[Metric]DistanceFunc{L2: SquaredL2, InnerProduct: NegInnerProduct}
		for _, sc := range []*Scorer{l2, ip, cos, mah} {
			m := sc.Metric()
			// The query is a stored row, so that ScoreRows, which takes
			// both sides from the cache, has a ScoreAt to agree with.
			const qi = 17
			q := data[qi*d : (qi+1)*d]
			b := sc.Bind(q)
			ref := make([]float32, n)
			for i := range ref {
				ref[i] = b.ScoreAt(i)
				if fn := scalar[m]; fn != nil && !sameBits(ref[i], fn(q, data[i*d:(i+1)*d])) {
					t.Fatalf("%v d=%d row %d: ScoreAt %v, scalar %v", m, d, i, ref[i], fn(q, data[i*d:(i+1)*d]))
				}
				if got := sc.ScoreRows(qi, i); !sameBits(got, ref[i]) {
					t.Fatalf("%v d=%d row %d: ScoreRows %v, ScoreAt %v", m, d, i, got, ref[i])
				}
			}
			out := make([]float32, n)
			for split := 0; split <= n; split++ {
				b.ScoreBlock(0, split, out)
				b.ScoreBlock(split, n, out[split:])
				for i := range out {
					if !sameBits(out[i], ref[i]) {
						t.Fatalf("%v d=%d split %d row %d: ScoreBlock %v, ScoreAt %v", m, d, split, i, out[i], ref[i])
					}
				}
			}
			ids := make([]int32, n)
			for o, i := range rng.Perm(n) {
				ids[o] = int32(i)
			}
			// Every list length up to 40, so every distance from the end
			// of a list at which the gather kernel stops prefetching ahead,
			// then the whole permutation; an id may repeat.
			ids[3] = ids[1]
			for l := 0; l <= n; l++ {
				if l > 40 && l < n {
					continue
				}
				b.ScoreIDs(ids[:l], out)
				for o, id := range ids[:l] {
					if !sameBits(out[o], ref[id]) {
						t.Fatalf("%v d=%d list of %d, id %d: ScoreIDs %v, ScoreAt %v", m, d, l, id, out[o], ref[id])
					}
				}
			}
		}
	}
}
