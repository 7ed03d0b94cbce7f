// Package kmeans implements Lloyd's algorithm with k-means++ seeding
// and an optional mini-batch mode. It is the learned-partitioning
// primitive shared by the IVF family, quantizers (PQ/OPQ codebooks),
// and the SPANN-style disk index (Section 2.2).
package kmeans

import (
	"fmt"
	"math"
	"math/rand"

	"vdbms/internal/pool"
	"vdbms/internal/vec"
)

// Config controls training.
type Config struct {
	K         int   // number of clusters; required
	MaxIter   int   // Lloyd iterations; default 25
	Seed      int64 // RNG seed; default 1
	MiniBatch int   // if > 0, sample this many points per iteration
}

// Result holds trained centroids and assignment metadata.
type Result struct {
	K         int
	Dim       int
	Centroids []float32 // row-major K x Dim
	// Assign[i] is the centroid index of training point i. Populated
	// only for full-batch training (MiniBatch == 0).
	Assign []int
	// Inertia is the final sum of squared distances from each training
	// point to its centroid (full-batch only).
	Inertia float64
}

// Centroid returns centroid c as a slice view.
func (r *Result) Centroid(c int) []float32 {
	return r.Centroids[c*r.Dim : (c+1)*r.Dim]
}

// Nearest returns the index of the centroid closest to v and the
// squared distance to it.
func (r *Result) Nearest(v []float32) (int, float32) {
	best, bestD := 0, float32(math.Inf(1))
	for c := 0; c < r.K; c++ {
		d := vec.SquaredL2(v, r.Centroid(c))
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// NearestN returns the indices of the n closest centroids to v in
// ascending distance order. Used by IVF multi-probe and SPANN closure
// assignment.
func (r *Result) NearestN(v []float32, n int) []int {
	if n > r.K {
		n = r.K
	}
	type cd struct {
		c int
		d float32
	}
	best := make([]cd, 0, n)
	for c := 0; c < r.K; c++ {
		d := vec.SquaredL2(v, r.Centroid(c))
		if len(best) < n {
			best = append(best, cd{c, d})
			for j := len(best) - 1; j > 0 && best[j].d < best[j-1].d; j-- {
				best[j], best[j-1] = best[j-1], best[j]
			}
			continue
		}
		if d >= best[n-1].d {
			continue
		}
		best[n-1] = cd{c, d}
		for j := n - 1; j > 0 && best[j].d < best[j-1].d; j-- {
			best[j], best[j-1] = best[j-1], best[j]
		}
	}
	out := make([]int, len(best))
	for i, b := range best {
		out[i] = b.c
	}
	return out
}

// Train clusters n row-major points of dimension d.
//
// Full-batch training fans each pass over the shared worker pool, and
// its output does not depend on how many workers ran it: a point's
// assignment depends on that point alone, every sum still accumulates
// in point order, and the random draws stay on the calling goroutine.
func Train(data []float32, n, d int, cfg Config) (*Result, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("kmeans: K must be positive, got %d", cfg.K)
	}
	if n == 0 {
		return nil, fmt.Errorf("kmeans: no training data")
	}
	if d <= 0 {
		return nil, fmt.Errorf("kmeans: dimension must be positive, got %d", d)
	}
	if len(data) != n*d {
		return nil, fmt.Errorf("kmeans: data length %d != n*d %d", len(data), n*d)
	}
	k := cfg.K
	if k > n {
		k = n // degenerate: every point its own cluster
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 25
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	t := newTrainer(data, n, d, k)
	res := &Result{K: k, Dim: d, Centroids: t.seedPlusPlus(rng)}
	if cfg.MiniBatch > 0 && cfg.MiniBatch < n {
		trainMiniBatch(res, data, n, d, maxIter, cfg.MiniBatch, rng)
		return res, nil
	}
	t.lloyd(res, maxIter, rng)
	return res, nil
}

// seedBlock is how many points seeding scores against a new centroid
// per kernel call.
const seedBlock = 256

// inf is the bound that cuts nothing.
var inf = float32(math.Inf(1))

// trainer holds what the passes of one training run share: the points
// and a scorer over them, and the fixed row ranges that each pass fans
// over the pool. The ranges depend only on the shape, and no pass's
// result depends on them.
type trainer struct {
	data   []float32
	n, d   int
	k      int
	points *vec.Scorer
	pool   *pool.Pool
	rows   []int // row range starts, one range per task
	dims   []int // dimension range starts for the centroid sums
}

func newTrainer(data []float32, n, d, k int) *trainer {
	points, err := vec.NewScorer(vec.L2, data, n, d)
	if err != nil {
		panic("kmeans: " + err.Error()) // Train checked the shape
	}
	p := pool.Default()
	// A pass is worth a worker from about 64K multiply-adds on; a
	// dimension range keeps at least 16 floats so workers do not share
	// a cache line of the sums.
	w := p.Effective(n * k * d >> 16)
	return &trainer{
		data: data, n: n, d: d, k: k, points: points, pool: p,
		rows: pool.Split(n, w),
		dims: pool.Split(d, max(1, min(w, d/16))),
	}
}

// seedPlusPlus picks initial centroids with the k-means++ D^2 rule.
func (t *trainer) seedPlusPlus(rng *rand.Rand) []float32 {
	n, d := t.n, t.d
	cent := make([]float32, t.k*d)
	first := rng.Intn(n)
	copy(cent[:d], t.data[first*d:(first+1)*d])
	dist := make([]float64, n)
	t.lower(cent[:d], dist, true)
	for c := 1; c < t.k; c++ {
		var total float64
		for _, dd := range dist {
			total += dd
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			pick = n - 1
			for i, dd := range dist {
				acc += dd
				if acc >= target {
					pick = i
					break
				}
			}
		}
		row := cent[c*d : (c+1)*d]
		copy(row, t.data[pick*d:(pick+1)*d])
		t.lower(row, dist, false)
	}
	return cent
}

// lower scores every point against the centroid row and lowers dist[i]
// to that distance where it is smaller; on the first centroid it sets
// every dist[i]. Each seedBlock-point chunk is one kernel call, cut at
// the chunk's largest dist: a point cut above it lies farther from row
// than from a centroid it already has, and keeps its dist.
func (t *trainer) lower(row []float32, dist []float64, first bool) {
	b := t.points.Bind(row)
	t.pool.Run(len(t.rows)-1, func(w int) {
		var out [seedBlock]float32
		for lo := t.rows[w]; lo < t.rows[w+1]; lo += seedBlock {
			hi := min(lo+seedBlock, t.rows[w+1])
			bound := inf
			if !first {
				var m float64
				for _, dd := range dist[lo:hi] {
					m = max(m, dd)
				}
				bound = float32(m)
			}
			b.ScoreBlockWithin(lo, hi, out[:hi-lo], bound)
			for i, dd := range out[:hi-lo] {
				if first || float64(dd) < dist[lo+i] {
					dist[lo+i] = float64(dd)
				}
			}
		}
	})
}

// assign sets assign[i] to the centroid nearest point i and dist[i] to
// the distance to it, as Nearest does. A point scores all K centroids in
// one kernel call, cut at its exact distance to the centroid it held
// before (on the first pass, centroid 0): that centroid scores at most
// the bound and is never cut, so the nearest is not cut either, and a
// cut centroid, above the bound, can neither be nor tie the nearest.
// The argmin over the block is therefore Nearest's, bit for bit;
// TestAssignMatchesNearest holds the two to each other.
func (t *trainer) assign(cents *vec.Scorer, assign []int, dist []float32) {
	d := t.d
	t.pool.Run(len(t.rows)-1, func(w int) {
		out := make([]float32, t.k)
		for i := t.rows[w]; i < t.rows[w+1]; i++ {
			b := cents.Bind(t.data[i*d : (i+1)*d])
			b.ScoreBlockWithin(0, t.k, out, b.ScoreAt(assign[i]))
			best, bestD := 0, inf
			for c, dd := range out {
				if dd < bestD {
					best, bestD = c, dd
				}
			}
			assign[i], dist[i] = best, bestD
		}
	})
}

// accumulate sums the points of each cluster into sums. Each worker
// owns a range of dimensions and walks the points in order, so every
// sums[c*d+j] adds its terms in point order whatever the split.
func (t *trainer) accumulate(assign []int, sums []float64) {
	d := t.d
	clear(sums)
	t.pool.Run(len(t.dims)-1, func(w int) {
		lo, hi := t.dims[w], t.dims[w+1]
		for i, c := range assign {
			row := t.data[i*d+lo : i*d+hi]
			s := sums[c*d+lo : c*d+hi]
			for j, x := range row {
				s[j] += float64(x)
			}
		}
	})
}

func (t *trainer) lloyd(res *Result, maxIter int, rng *rand.Rand) {
	n, d, k := t.n, t.d, t.k
	// L2 keeps no per-row state, so this scorer serves while the update
	// below rewrites the centroids in place.
	cents, err := vec.NewScorer(vec.L2, res.Centroids, k, d)
	if err != nil {
		panic("kmeans: " + err.Error())
	}
	assign := make([]int, n)
	dist := make([]float32, n)
	counts := make([]int, k)
	sums := make([]float64, k*d)
	prevInertia := math.Inf(1)
	for iter := 0; iter < maxIter; iter++ {
		t.assign(cents, assign, dist)
		clear(counts)
		inertia := 0.0
		for i, c := range assign {
			counts[c]++
			inertia += float64(dist[i])
		}
		t.accumulate(assign, sums)
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point, the
				// standard remedy for dead centroids.
				p := rng.Intn(n)
				copy(res.Centroids[c*d:(c+1)*d], t.data[p*d:(p+1)*d])
				continue
			}
			inv := 1 / float64(counts[c])
			cRow := res.Centroids[c*d : (c+1)*d]
			s := sums[c*d : (c+1)*d]
			for j := range cRow {
				cRow[j] = float32(s[j] * inv)
			}
		}
		res.Inertia = inertia
		if prevInertia-inertia < 1e-7*(1+inertia) {
			break
		}
		prevInertia = inertia
	}
	// Final assignment pass against the last centroid update.
	t.assign(cents, assign, dist)
	res.Inertia = 0
	for _, dd := range dist {
		res.Inertia += float64(dd)
	}
	res.Assign = assign
}

func trainMiniBatch(res *Result, data []float32, n, d, maxIter, batch int, rng *rand.Rand) {
	k := res.K
	counts := make([]int, k) // per-centroid cumulative counts for decaying step size
	for iter := 0; iter < maxIter; iter++ {
		for b := 0; b < batch; b++ {
			i := rng.Intn(n)
			row := data[i*d : (i+1)*d]
			c, _ := res.Nearest(row)
			counts[c]++
			eta := float32(1 / float64(counts[c]))
			cRow := res.Centroids[c*d : (c+1)*d]
			for j := range cRow {
				cRow[j] += eta * (row[j] - cRow[j])
			}
		}
	}
	_ = k
}
