// Package spectral implements spectral hashing (Weiss, Torralba &
// Fergus), the learning-to-hash technique of Section 2.2(2): bits are
// the thresholded eigenfunctions of the data's graph Laplacian, which
// for a uniform-on-a-box approximation reduce to sinusoids along the
// principal axes. Unlike LSH's random projections, the partitioning
// is *learned* from the data's PCA structure — and therefore, as the
// paper notes for all L2H methods, data dependent and weak on
// out-of-distribution updates (exercised in the tests).
package spectral

import (
	"fmt"
	"math"
	"sort"

	"vdbms/internal/index"
	"vdbms/internal/matrix"
	"vdbms/internal/topk"
	"vdbms/internal/tuner"
	"vdbms/internal/vec"
)

// Config controls construction.
type Config struct {
	// Bits is the hash width (and bucket-key size); default 12,
	// maximum 30.
	Bits int
	// PCADims bounds how many principal axes are considered; default
	// min(d, Bits).
	PCADims int
}

// Index is the built table.
type Index struct {
	cfg    Config
	dim    int
	n      int
	sc     *vec.Scorer   // re-ranks bucket members by squared L2
	axes   *matrix.Dense // PCADims x dim principal axes
	mean   []float64
	mins   []float64 // per-axis projection min
	ranges []float64 // per-axis projection range
	// funcs lists the selected (axis, mode) eigenfunction pairs, one
	// per bit, ordered by analytic eigenvalue.
	funcs []eigenFn
	table map[uint32][]int32
}

type eigenFn struct {
	axis int
	mode int // sinusoid frequency k >= 1
}

// Build learns the hash from the data and populates the table.
func Build(data []float32, n, d int, cfg Config) (*Index, error) {
	if d <= 0 || n <= 0 || len(data) < n*d {
		return nil, fmt.Errorf("spectral: bad data shape n=%d d=%d len=%d", n, d, len(data))
	}
	if cfg.Bits <= 0 {
		cfg.Bits = 12
	}
	if cfg.Bits > 30 {
		return nil, fmt.Errorf("spectral: Bits=%d exceeds 30", cfg.Bits)
	}
	if cfg.PCADims <= 0 || cfg.PCADims > d {
		cfg.PCADims = d
	}
	if cfg.PCADims > cfg.Bits {
		cfg.PCADims = cfg.Bits
	}
	sc, err := vec.NewScorer(vec.L2, data, n, d)
	if err != nil {
		return nil, fmt.Errorf("spectral: %w", err)
	}
	s := &Index{cfg: cfg, dim: d, n: n, sc: sc}
	s.axes, s.mean = matrix.PCA(data, n, d, cfg.PCADims)

	// Project all points to find per-axis extents.
	s.mins = make([]float64, cfg.PCADims)
	s.ranges = make([]float64, cfg.PCADims)
	maxs := make([]float64, cfg.PCADims)
	for i := range s.mins {
		s.mins[i] = math.Inf(1)
		maxs[i] = math.Inf(-1)
	}
	proj := make([]float64, cfg.PCADims)
	for i := 0; i < n; i++ {
		s.project(data[i*d:(i+1)*d], proj)
		for a, p := range proj {
			if p < s.mins[a] {
				s.mins[a] = p
			}
			if p > maxs[a] {
				maxs[a] = p
			}
		}
	}
	for a := range s.ranges {
		s.ranges[a] = maxs[a] - s.mins[a]
		if s.ranges[a] <= 0 {
			s.ranges[a] = 1 // constant axis: bit will be constant too
		}
	}

	// Enumerate candidate eigenfunctions and keep the Bits smallest
	// analytic eigenvalues lambda = (k*pi/range)^2.
	type cand struct {
		fn     eigenFn
		lambda float64
	}
	var cands []cand
	maxMode := cfg.Bits // enough modes per axis to fill the budget
	for a := 0; a < cfg.PCADims; a++ {
		for k := 1; k <= maxMode; k++ {
			lam := math.Pow(float64(k)*math.Pi/s.ranges[a], 2)
			cands = append(cands, cand{eigenFn{axis: a, mode: k}, lam})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lambda < cands[j].lambda })
	s.funcs = make([]eigenFn, cfg.Bits)
	for b := 0; b < cfg.Bits; b++ {
		s.funcs[b] = cands[b].fn
	}

	// Populate buckets.
	s.table = make(map[uint32][]int32)
	for i := 0; i < n; i++ {
		key := s.hash(data[i*d : (i+1)*d])
		s.table[key] = append(s.table[key], int32(i))
	}
	return s, nil
}

// project computes centered PCA coordinates of v into out.
func (s *Index) project(v []float32, out []float64) {
	for a := 0; a < s.cfg.PCADims; a++ {
		row := s.axes.Row(a)
		var p float64
		for j, x := range v {
			p += row[j] * (float64(x) - s.mean[j])
		}
		out[a] = p
	}
}

// hash evaluates the eigenfunction signs.
func (s *Index) hash(v []float32) uint32 {
	proj := make([]float64, s.cfg.PCADims)
	s.project(v, proj)
	var key uint32
	for b, fn := range s.funcs {
		t := (proj[fn.axis] - s.mins[fn.axis]) / s.ranges[fn.axis] // [0,1] on train data
		val := math.Sin(math.Pi/2 + float64(fn.mode)*math.Pi*t)
		if val >= 0 {
			key |= 1 << uint(b)
		}
	}
	return key
}

// Name implements index.Index.
func (s *Index) Name() string { return "spectral" }

// Size implements index.Index.
func (s *Index) Size() int { return s.n }

// Buckets returns the number of non-empty buckets (diagnostic).
func (s *Index) Buckets() int { return len(s.table) }

// Search implements index.Index with multi-probe lookup: buckets are
// visited in increasing Hamming distance from the query's hash until
// at least p.Ef candidates (default 8k, floor 64) are re-ranked, each
// bucket's admitted members handed to one index.Scan. p.Ctx is polled
// before each bucket.
func (s *Index) Search(q []float32, k int, p index.Params) ([]topk.Result, error) {
	if err := index.CheckQuery(q, k, s.dim); err != nil {
		return nil, err
	}
	budget := p.Ef
	if budget <= 0 {
		budget = max(64, 8*k)
	}
	key := s.hash(q)
	sc := index.NewScan(s.sc, q, k, &p)
	probed := 0
	// more scans one bucket and reports whether the probe goes on.
	more := func(bucket uint32) bool {
		if !sc.Bucket(s.table[bucket]) {
			return false
		}
		probed++
		return sc.Work.Comps < int64(budget)
	}
	// Radius 0, then 1, then 2 (pairs of flipped bits).
	goOn := more(key)
	bits := s.cfg.Bits
	for b := 0; b < bits && goOn; b++ {
		goOn = more(key ^ (1 << uint(b)))
	}
	for b1 := 0; b1 < bits && goOn; b1++ {
		for b2 := b1 + 1; b2 < bits && goOn; b2++ {
			goOn = more(key ^ (1 << uint(b1)) ^ (1 << uint(b2)))
		}
	}
	return sc.Finish(probed)
}

// Remap implements index.Remappable: the learned hash and the table are
// shared, and only the re-ranking scorer is rebound to data.
func (s *Index) Remap(data []float32) (index.Index, bool) {
	s2 := *s
	if !index.Rebind(&s2.sc, data) {
		return nil, false
	}
	return &s2, true
}

func init() {
	// PCA-threshold buckets and the re-rank scan assume squared L2; Ef
	// is the re-rank budget.
	// Build caps bits at 30 and clamps pcadims to bits.
	options := []index.Option{{Name: "bits", Max: 30}, {Name: "pcadims", Max: 30}}
	index.Register(index.Family{Name: "spectral", Knob: tuner.KnobEf, Metrics: []vec.Metric{vec.L2}, Options: options, Build: func(data []float32, n, d int, _ vec.Metric, opts map[string]int) (index.Index, error) {
		return Build(data, n, d, Config{Bits: opts["bits"], PCADims: opts["pcadims"]})
	}})
}
