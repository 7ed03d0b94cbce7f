package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestSquaredL2Known(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 6, 3}
	if got := SquaredL2(a, b); got != 25 {
		t.Fatalf("SquaredL2 = %v, want 25", got)
	}
	if got := SquaredL2(a, a); got != 0 {
		t.Fatalf("SquaredL2(a,a) = %v, want 0", got)
	}
}

func TestSquaredL2TailHandling(t *testing.T) {
	// Lengths that are not multiples of the 4-way unroll.
	for n := 0; n <= 9; n++ {
		a := make([]float32, n)
		b := make([]float32, n)
		var want float32
		for i := 0; i < n; i++ {
			a[i] = float32(i + 1)
			b[i] = float32(2 * i)
			d := a[i] - b[i]
			want += d * d
		}
		if got := SquaredL2(a, b); got != want {
			t.Fatalf("n=%d: got %v want %v", n, got, want)
		}
	}
}

func TestDotKnown(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5}
	b := []float32{5, 4, 3, 2, 1}
	if got := Dot(a, b); got != 35 {
		t.Fatalf("Dot = %v, want 35", got)
	}
	if got := NegInnerProduct(a, b); got != -35 {
		t.Fatalf("NegInnerProduct = %v, want -35", got)
	}
}

func TestCosineDistance(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if got := CosineDistance(a, b); !almostEq(float64(got), 1, 1e-6) {
		t.Fatalf("orthogonal cosine distance = %v, want 1", got)
	}
	if got := CosineDistance(a, a); !almostEq(float64(got), 0, 1e-6) {
		t.Fatalf("self cosine distance = %v, want 0", got)
	}
	c := []float32{-2, 0}
	if got := CosineDistance(a, c); !almostEq(float64(got), 2, 1e-6) {
		t.Fatalf("opposite cosine distance = %v, want 2", got)
	}
	zero := []float32{0, 0}
	if got := CosineDistance(a, zero); got != 1 {
		t.Fatalf("zero-vector cosine distance = %v, want 1", got)
	}
}

func TestManhattanChebyshev(t *testing.T) {
	a := []float32{1, -2, 3}
	b := []float32{-1, 2, 0}
	if got := ManhattanDistance(a, b); got != 9 {
		t.Fatalf("L1 = %v, want 9", got)
	}
	if got := ChebyshevDistance(a, b); got != 4 {
		t.Fatalf("Linf = %v, want 4", got)
	}
}

func TestHamming(t *testing.T) {
	a := []float32{1, -1, 1, -1}
	b := []float32{1, 1, -1, -1}
	if got := HammingDistance(a, b); got != 2 {
		t.Fatalf("Hamming = %v, want 2", got)
	}
}

func TestMinkowskiMatchesSpecialCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float32, 16)
	b := make([]float32, 16)
	for i := range a {
		a[i] = rng.Float32()
		b[i] = rng.Float32()
	}
	if got, want := MinkowskiDistance(1)(a, b), ManhattanDistance(a, b); !almostEq(float64(got), float64(want), 1e-5) {
		t.Fatalf("p=1: got %v want %v", got, want)
	}
	l2 := float32(math.Sqrt(float64(SquaredL2(a, b))))
	if got := MinkowskiDistance(2)(a, b); !almostEq(float64(got), float64(l2), 1e-5) {
		t.Fatalf("p=2: got %v want %v", got, l2)
	}
}

func TestMinkowskiPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p < 1")
		}
	}()
	MinkowskiDistance(0.5)
}

func TestMetricRoundTrip(t *testing.T) {
	for _, m := range []Metric{L2, InnerProduct, Cosine, L1, Linf, Hamming, Mahalanobis} {
		got, err := ParseMetric(m.String())
		if err != nil {
			t.Fatalf("ParseMetric(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("round trip %v -> %v", m, got)
		}
	}
	if _, err := ParseMetric("bogus"); err == nil {
		t.Fatal("expected error for unknown metric")
	}
}

func TestDistanceDispatch(t *testing.T) {
	a := []float32{1, 2}
	b := []float32{3, 4}
	if got := Distance(L2)(a, b); got != 8 {
		t.Fatalf("dispatch L2 = %v, want 8", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic dispatching Mahalanobis")
		}
	}()
	Distance(Mahalanobis)
}

func TestNormalize(t *testing.T) {
	v := []float32{3, 4}
	Normalize(v)
	if !almostEq(float64(Norm(v)), 1, 1e-6) {
		t.Fatalf("norm after Normalize = %v", Norm(v))
	}
	z := []float32{0, 0}
	Normalize(z)
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero vector must be unchanged")
	}
}

func TestMahalanobisIdentityIsL2(t *testing.T) {
	d := 8
	m := make([][]float32, d)
	for i := range m {
		m[i] = make([]float32, d)
		m[i][i] = 1
	}
	mh, err := NewMahalanobis(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	a := make([]float32, d)
	b := make([]float32, d)
	for i := range a {
		a[i], b[i] = rng.Float32(), rng.Float32()
	}
	if got, want := mh.Distance(a, b), SquaredL2(a, b); !almostEq(float64(got), float64(want), 1e-5) {
		t.Fatalf("identity Mahalanobis = %v, want %v", got, want)
	}
}

func TestNewMahalanobisRejectsNonSquare(t *testing.T) {
	if _, err := NewMahalanobis([][]float32{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged matrix")
	}
}

// Property: squared L2 is symmetric, non-negative, and zero iff equal
// inputs (for finite floats).
func TestSquaredL2Properties(t *testing.T) {
	f := func(ax, bx [8]int16) bool {
		a := make([]float32, 8)
		b := make([]float32, 8)
		for i := 0; i < 8; i++ {
			a[i] = float32(ax[i]) / 64
			b[i] = float32(bx[i]) / 64
		}
		d1 := SquaredL2(a, b)
		d2 := SquaredL2(b, a)
		return d1 == d2 && d1 >= 0 && SquaredL2(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality for the true (non-squared) L2 metric
// and for L1.
func TestTriangleInequality(t *testing.T) {
	f := func(ax, bx, cx [6]int8) bool {
		a := make([]float32, 6)
		b := make([]float32, 6)
		c := make([]float32, 6)
		for i := 0; i < 6; i++ {
			a[i], b[i], c[i] = float32(ax[i]), float32(bx[i]), float32(cx[i])
		}
		l2 := func(x, y []float32) float64 { return math.Sqrt(float64(SquaredL2(x, y))) }
		const slack = 1e-4
		if l2(a, c) > l2(a, b)+l2(b, c)+slack {
			return false
		}
		return float64(ManhattanDistance(a, c)) <= float64(ManhattanDistance(a, b))+float64(ManhattanDistance(b, c))+slack
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cosine distance is invariant to positive scaling.
func TestCosineScaleInvariance(t *testing.T) {
	f := func(ax, bx [5]int8, s uint8) bool {
		scale := float32(s%31) + 1
		a := make([]float32, 5)
		b := make([]float32, 5)
		sb := make([]float32, 5)
		for i := 0; i < 5; i++ {
			a[i], b[i] = float32(ax[i]), float32(bx[i])
			sb[i] = b[i] * scale
		}
		return almostEq(float64(CosineDistance(a, b)), float64(CosineDistance(a, sb)), 1e-4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDims(t *testing.T) {
	if err := CheckDims([]float32{1}, []float32{1, 2}); err == nil {
		t.Fatal("expected dimension mismatch")
	}
	if err := CheckDims([]float32{1, 2}, []float32{3, 4}); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}
