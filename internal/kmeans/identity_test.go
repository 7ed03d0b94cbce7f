package kmeans

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// clustered returns n row-major points of dimension d around c
// Gaussian centres drawn from [-10, 10)^d, with unit spread.
func clustered(n, d, c int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	centres := make([]float32, c*d)
	for i := range centres {
		centres[i] = float32(rng.Float64()*20 - 10)
	}
	data := make([]float32, n*d)
	for i := 0; i < n; i++ {
		ctr := centres[rng.Intn(c)*d:]
		for j := 0; j < d; j++ {
			data[i*d+j] = ctr[j] + float32(rng.NormFloat64())
		}
	}
	return data
}

// duplicated returns n points of dimension d that take only distinct
// values, so k-means++ seeds duplicate centroids once every distinct
// point holds one; the later duplicate loses every tie and its cluster
// comes up empty, which re-seeds it.
func duplicated(n, d, distinct int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]float32, distinct*d)
	for i := range pts {
		pts[i] = float32(rng.Intn(7))
	}
	data := make([]float32, n*d)
	for i := 0; i < n; i++ {
		copy(data[i*d:(i+1)*d], pts[rng.Intn(distinct)*d:])
	}
	return data
}

// resultHash is an fnv-64a hash of the bits of a training result: K,
// the centroids, the assignment and the inertia.
func resultHash(r *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(r.K))
	for _, c := range r.Centroids {
		put(uint64(math.Float32bits(c)))
	}
	for _, a := range r.Assign {
		put(uint64(a))
	}
	put(math.Float64bits(r.Inertia))
	return h.Sum64()
}

// identityCases are the training shapes TestTrainIdentity pins.
var identityCases = []struct {
	name    string
	n, d    int
	data    func() []float32
	cfg     Config
	hash    uint64
	inertia float64 // the pinned inertia, quoted so a mismatch reads at a glance
}{
	{"20000x128_k32", 20000, 128, func() []float32 { return clustered(20000, 128, 64, 1) },
		Config{K: 32, Seed: 7}, 0xc3a9b78ad9cb94e7, 3.921598601625061e+07},
	{"3000x19_k20", 3000, 19, func() []float32 { return clustered(3000, 19, 12, 2) },
		Config{K: 20, Seed: 3}, 0x2aaf30c16c2ffce7, 55434.64114141464},
	{"5000x8_k256", 5000, 8, func() []float32 { return clustered(5000, 8, 40, 3) },
		Config{K: 256, Seed: 5, MaxIter: 20}, 0x299c193672fe6ef8, 26101.182409524918},
	{"50x16_k80", 50, 16, func() []float32 { return clustered(50, 16, 4, 4) },
		Config{K: 80, Seed: 9}, 0x823197630ad39d14, 0},
	{"reseed_1000x12_k16", 1000, 12, func() []float32 { return duplicated(1000, 12, 6, 5) },
		Config{K: 16, Seed: 11}, 0x8220b9b8a04b4e53, 0},
	{"minibatch_4000x24_k16", 4000, 24, func() []float32 { return clustered(4000, 24, 16, 6) },
		Config{K: 16, Seed: 13, MaxIter: 30, MiniBatch: 256}, 0x994cfe6f55d10902, 0},
}

// TestTrainIdentity pins the bits of Train's output — centroids,
// assignment and inertia — on each case, so that no change to how
// training is scheduled or scored moves a single bit of an IVF list,
// a PQ codebook or a SPANN posting. CI runs it at GOMAXPROCS 1, 2 and
// 8 and on the portable kernel tier.
func TestTrainIdentity(t *testing.T) {
	for _, tc := range identityCases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Train(tc.data(), tc.n, tc.d, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultHash(res); got != tc.hash {
				t.Errorf("hash %#x (inertia %v), want %#x (inertia %v)", got, res.Inertia, tc.hash, tc.inertia)
			}
		})
	}
}

// TestAssignMatchesNearest holds the trainer's bounded block
// assignment to Nearest, one SquaredL2 per centroid: on every
// full-batch identity case each point's assignment is the centroid
// Nearest picks for it, and the inertia is the sum of Nearest's
// distances in point order, bit for bit.
func TestAssignMatchesNearest(t *testing.T) {
	for _, tc := range identityCases {
		if tc.cfg.MiniBatch > 0 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			data := tc.data()
			res, err := Train(data, tc.n, tc.d, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var inertia float64
			for i, a := range res.Assign {
				c, dd := res.Nearest(data[i*tc.d : (i+1)*tc.d])
				if c != a {
					t.Fatalf("point %d: assigned %d, Nearest %d", i, a, c)
				}
				inertia += float64(dd)
			}
			if math.Float64bits(inertia) != math.Float64bits(res.Inertia) {
				t.Errorf("inertia %v, Nearest's distances sum to %v", res.Inertia, inertia)
			}
		})
	}
}

// sink keeps BenchmarkTrain's result alive.
var sink *Result

// BenchmarkTrain times full-batch training on the benchmark's shape:
// 20 000 clustered points of dimension 128 into 32 lists.
func BenchmarkTrain(b *testing.B) {
	const n, d = 20000, 128
	data := clustered(n, d, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Train(data, n, d, Config{K: 32, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		sink = res
	}
}
