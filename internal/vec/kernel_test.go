package vec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// and gather entry points over all rows at once. The L2 block and
// gather kernels run under every bound of cutBounds and must store the
// portable kernel's bits for every row, partial sums of cut rows
// included, and cut as many rows; a row whose full score is within the
// bound is never cut, a cut row stores a value above the bound, and an
// uncut row its full score. (A row whose score is NaN may be cut: the
// NaN can come after a cut point. Nothing that drops scores above a
// finite bound keeps a NaN either.)
func checkKernels(t *testing.T, what string, q, rows []float32, n int) {
	t.Helper()
	d := len(q)
	full := make([]float32, n)
	dp := make([]float32, n)
	dotRows(q, rows, dp)
	for i := 0; i < n; i++ {
		row := rows[i*d : (i+1)*d]
		full[i], _ = squaredL2Generic(q, row, inf)
		wantDot := dotGeneric(q, row)
		for _, c := range []struct {
			name      string
			got, want float32
		}{
			{"SquaredL2", SquaredL2(q, row), full[i]},
			{"Dot", Dot(q, row), wantDot},
			{"dotRows", dp[i], wantDot},
		} {
			if !sameScore(c.got, c.want) {
				t.Fatalf("%s d=%d row %d: %s = %v (bits %x), portable %v (bits %x)", what, d, i,
					c.name, c.got, math.Float32bits(c.got), c.want, math.Float32bits(c.want))
			}
		}
	}
	// The gather list names the rows last to first.
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(n - 1 - i)
	}
	l2, gat := make([]float32, n), make([]float32, n)
	for _, bound := range cutBounds(full) {
		cut := l2Rows(q, rows, l2, bound)
		gcut := l2Gather(q, rows, ids, gat, bound)
		wantCut := 0
		for i := 0; i < n; i++ {
			want, c := squaredL2Generic(q, rows[i*d:(i+1)*d], bound)
			if c {
				wantCut++
			}
			switch {
			case !sameScore(l2[i], want):
				t.Fatalf("%s d=%d bound %v row %d: l2Rows = %v (bits %x), portable %v (bits %x)", what, d, bound, i,
					l2[i], math.Float32bits(l2[i]), want, math.Float32bits(want))
			case !sameScore(gat[n-1-i], want):
				t.Fatalf("%s d=%d bound %v row %d: l2Gather = %v (bits %x), portable %v (bits %x)", what, d, bound, i,
					gat[n-1-i], math.Float32bits(gat[n-1-i]), want, math.Float32bits(want))
			case full[i] <= bound && c:
				t.Fatalf("%s d=%d bound %v row %d: score %v within the bound cut at %v", what, d, bound, i, full[i], want)
			case c && !(want > bound):
				t.Fatalf("%s d=%d bound %v row %d: cut at %v, not above the bound", what, d, bound, i, want)
			case !c && !sameScore(want, full[i]):
				t.Fatalf("%s d=%d bound %v row %d: uncut score %v stored as %v", what, d, bound, i, full[i], want)
			}
		}
		if cut != wantCut || gcut != wantCut {
			t.Fatalf("%s d=%d bound %v: l2Rows cut %d rows, l2Gather %d, portable %d", what, d, bound, cut, gcut, wantCut)
		}
	}
}

// cutBounds are the bounds the L2 kernels are checked under: none, one
// every row with floats past the first cut point is cut at, the median
// of the rows' full scores (some rows cut, some not) and NaN (no
// comparison with it holds, so nothing is cut).
func cutBounds(full []float32) []float32 {
	mid := float32(0)
	if len(full) > 0 {
		sorted := slices.Clone(full)
		slices.Sort(sorted)
		mid = sorted[len(sorted)/2]
	}
	return []float32{inf, 0, mid, float32(math.NaN())}
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
		"SquaredL2":  func() { SquaredL2(a, a[:8]) },
		"Dot":        func() { Dot(a, a[:8]) },
		"l2Rows":     func() { l2Rows(a, make([]float32, 2*len(a)-1), make([]float32, 2), inf) },
		"l2Rows cut": func() { l2Rows(a, make([]float32, 2*len(a)-1), make([]float32, 2), 0) },
		"dotRows":    func() { dotRows(a, make([]float32, 2*len(a)-1), make([]float32, 2)) },
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
// has one) the exported scalar function return the same bits; ScoreRows
// is symmetric under every metric; and the bounded paths, for a stored
// row and a NaN query, return those bits for every row they do not cut.
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
		// The scalar metrics have no cached state and no kernel path;
		// they join the symmetry case only.
		for _, m := range []Metric{L1, Linf, Hamming} {
			sc, err := NewScorer(m, data, n, d)
			if err != nil {
				t.Fatal(err)
			}
			checkSymmetry(t, fmt.Sprintf("%v d=%d", m, d), sc, n)
		}
		for _, sc := range []*Scorer{l2, ip, cos, mah} {
			m := sc.Metric()
			checkSymmetry(t, fmt.Sprintf("%v d=%d", m, d), sc, n)
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
			checkWithin(t, fmt.Sprintf("%v d=%d", m, d), b, ref, ids)
			// A NaN in the query makes every full score NaN; a row is cut
			// only where its partial sum passes the bound before the NaN
			// enters it.
			nq := slices.Clone(q)
			nq[d/2] = float32(math.NaN())
			nb := sc.Bind(nq)
			nref := make([]float32, n)
			for i := range nref {
				nref[i] = nb.ScoreAt(i)
			}
			checkWithin(t, fmt.Sprintf("%v d=%d NaN query", m, d), nb, nref, ids)
		}
	}
}

// checkSymmetry holds ScoreRows to symmetry, bit for bit, over every
// pair of the first rows, so a graph build may store d(id, nb) where it
// would compute d(nb, id).
func checkSymmetry(t *testing.T, label string, sc *Scorer, n int) {
	t.Helper()
	rows := min(n, 60)
	for i := 0; i < rows; i++ {
		for j := i + 1; j < rows; j++ {
			if a, b := sc.ScoreRows(i, j), sc.ScoreRows(j, i); !sameBits(a, b) {
				t.Fatalf("%s: ScoreRows(%d, %d) = %v, ScoreRows(%d, %d) = %v", label, i, j, a, j, i, b)
			}
		}
	}
}

// checkWithin holds the bounded scorer paths to ScoreAt (ref) under
// every bound of cutBounds: ScoreBlockWithin at every split of the
// rows and ScoreIDsWithin over ids store ScoreAt's bits for every row
// within the bound, a value above the bound for every row they cut,
// and cut the same rows. Only L2 and factored Mahalanobis may cut.
func checkWithin(t *testing.T, what string, b Bound, ref []float32, ids []int32) {
	t.Helper()
	n := len(ref)
	out, gat := make([]float32, n), make([]float32, n)
	mayCut := b.s.metric == L2 || b.s.metric == Mahalanobis
	for _, bound := range cutBounds(ref) {
		// check compares one stored score with ScoreAt's and reports
		// whether the row was cut.
		check := func(path string, i int, got float32) bool {
			t.Helper()
			switch {
			case sameBits(got, ref[i]) || got != got && ref[i] != ref[i]:
				return false
			case !mayCut || ref[i] <= bound || !(got > bound):
				t.Fatalf("%s bound %v row %d: %s %v, ScoreAt %v", what, bound, i, path, got, ref[i])
			}
			return true
		}
		want := -1
		for split := 0; split <= n; split += 7 {
			cut := b.ScoreBlockWithin(0, split, out, bound) + b.ScoreBlockWithin(split, n, out[split:], bound)
			seen := 0
			for i := range out {
				if check("ScoreBlockWithin", i, out[i]) {
					seen++
				}
			}
			if want < 0 {
				want = seen
			}
			if cut != seen || seen != want {
				t.Fatalf("%s bound %v split %d: %d rows cut, %d scores differ from ScoreAt, %d at split 0", what, bound, split, cut, seen, want)
			}
		}
		if mayCut && bound == 0 && b.s.dim > cutEvery && !math.IsNaN(float64(ref[0])) && want == 0 {
			t.Fatalf("%s: bound 0 cut no row", what)
		}
		cut, seen := b.ScoreIDsWithin(ids, gat, bound), 0
		for o, id := range ids {
			if check("ScoreIDsWithin", int(id), gat[o]) {
				seen++
			}
		}
		if cut != seen {
			t.Fatalf("%s bound %v: ScoreIDsWithin cut %d rows, %d scores differ from ScoreAt", what, bound, cut, seen)
		}
	}
}
