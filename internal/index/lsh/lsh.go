// Package lsh implements locality sensitive hashing (Section 2.2(1)):
// L hash tables, each keyed by a concatenation of K hash functions
// drawn from a hash family. Two families are provided:
//
//   - "hyperplane": sign random projections (the random-hyperplane
//     family of EZLSH / IndexLSH binary projections), suited to
//     angular similarity.
//   - "pstable": the p-stable (Gaussian) family of Datar et al. used
//     by E2LSH for Euclidean distance, h(v) = floor((a·v + b) / w).
//
// Larger K sharpens each table (fewer false positives, more false
// negatives); larger L compensates by giving more chances to collide.
// E2 sweeps both to reproduce the recall/probe-cost trade-off.
package lsh

import (
	"fmt"
	"math/rand"

	"vdbms/internal/index"
	"vdbms/internal/topk"
	"vdbms/internal/tuner"
	"vdbms/internal/vec"
)

// Family selects the hash family.
type Family int

const (
	// Hyperplane hashes by the sign of a random projection.
	Hyperplane Family = iota
	// PStable hashes by a quantized random projection.
	PStable
)

// Config controls index construction.
type Config struct {
	L      int     // number of tables; default 8
	K      int     // hash functions concatenated per table; default 8
	Family Family  // default Hyperplane
	W      float32 // p-stable bucket width; default 4
	Seed   int64   // default 1
	Metric vec.Metric
}

// LSH is the built index.
type LSH struct {
	cfg    Config
	dim    int
	n      int
	sc     *vec.Scorer // re-ranks colliding candidates with cached row state
	tables []map[uint64][]int32
	// projections: per table, K vectors of dim floats (+ offset for
	// p-stable).
	proj    [][]float32 // [L][K*dim]
	offsets [][]float32 // [L][K], p-stable only
}

// Build constructs the index over n row-major vectors.
func Build(data []float32, n, d int, cfg Config) (*LSH, error) {
	if cfg.L <= 0 {
		cfg.L = 8
	}
	if cfg.K <= 0 {
		cfg.K = 8
	}
	if cfg.W <= 0 {
		cfg.W = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if d <= 0 || len(data) < n*d {
		return nil, fmt.Errorf("lsh: bad data shape n=%d d=%d len=%d", n, d, len(data))
	}
	metric := metricOrL2(cfg)
	sc, err := vec.NewScorer(metric, data, n, d)
	if err != nil {
		return nil, fmt.Errorf("lsh: %w", err)
	}
	l := &LSH{
		cfg:     cfg,
		dim:     d,
		n:       n,
		sc:      sc,
		tables:  make([]map[uint64][]int32, cfg.L),
		proj:    make([][]float32, cfg.L),
		offsets: make([][]float32, cfg.L),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for t := 0; t < cfg.L; t++ {
		p := make([]float32, cfg.K*d)
		for i := range p {
			p[i] = float32(rng.NormFloat64())
		}
		l.proj[t] = p
		if cfg.Family == PStable {
			off := make([]float32, cfg.K)
			for i := range off {
				off[i] = rng.Float32() * cfg.W
			}
			l.offsets[t] = off
		}
		l.tables[t] = make(map[uint64][]int32)
	}
	for id := 0; id < n; id++ {
		v := data[id*d : (id+1)*d]
		for t := 0; t < cfg.L; t++ {
			key := l.hash(t, v)
			l.tables[t][key] = append(l.tables[t][key], int32(id))
		}
	}
	return l, nil
}

func metricOrL2(cfg Config) vec.Metric {
	if cfg.Family == Hyperplane && cfg.Metric == vec.L2 {
		// Hyperplane LSH approximates angular similarity; default the
		// re-ranking metric to cosine unless the caller overrode it.
		return vec.Cosine
	}
	return cfg.Metric
}

// hash computes the table key: K sub-hashes mixed FNV-style.
func (l *LSH) hash(t int, v []float32) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	p := l.proj[t]
	for k := 0; k < l.cfg.K; k++ {
		dot := vec.Dot(v, p[k*l.dim:(k+1)*l.dim])
		var sub uint64
		if l.cfg.Family == Hyperplane {
			if dot >= 0 {
				sub = 1
			}
		} else {
			sub = uint64(int64((dot + l.offsets[t][k]) / l.cfg.W))
		}
		h = (h ^ sub) * fnvPrime
	}
	return h
}

// Name implements index.Index.
func (l *LSH) Name() string { return "lsh" }

// Size implements index.Index.
func (l *LSH) Size() int { return l.n }

// CandidateCount returns how many distinct candidates the query would
// collide with; E2 reports it as the probe cost.
func (l *LSH) CandidateCount(q []float32, tables int) int {
	seen := map[int32]struct{}{}
	if tables <= 0 || tables > l.cfg.L {
		tables = l.cfg.L
	}
	for t := 0; t < tables; t++ {
		for _, id := range l.tables[t][l.hash(t, q)] {
			seen[id] = struct{}{}
		}
	}
	return len(seen)
}

// Search implements index.Index: hash the query into each table, take
// colliding vectors as candidates, then re-rank them exactly through
// one index.Scan, handing it each table's bucket minus the ids an
// earlier table offered. p.NProbe caps the number of tables consulted
// (defaults to all L); p.Ctx is polled before each table.
func (l *LSH) Search(q []float32, k int, p index.Params) ([]topk.Result, error) {
	if err := index.CheckQuery(q, k, l.dim); err != nil {
		return nil, err
	}
	tables := p.NProbe
	if tables <= 0 || tables > l.cfg.L {
		tables = l.cfg.L
	}
	s := index.NewScan(l.sc, q, k, &p)
	seen := make(map[int32]struct{}, 64)
	var fresh []int32
	probed := 0
	for t := 0; t < tables; t++ {
		fresh = fresh[:0]
		for _, id := range l.tables[t][l.hash(t, q)] {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				fresh = append(fresh, id)
			}
		}
		if !s.Bucket(fresh) {
			break
		}
		probed++
	}
	return s.Finish(probed)
}

// Remap implements index.Remappable: the tables and projections are
// shared, and only the re-ranking scorer is rebound to data.
func (l *LSH) Remap(data []float32) (index.Index, bool) {
	l2 := *l
	if !index.Rebind(&l2.sc, data) {
		return nil, false
	}
	return &l2, true
}

func init() {
	// Hyperplane LSH hashes angles and p-stable LSH hashes L2 offsets:
	// under any other metric candidates would come from the wrong
	// buckets. NProbe caps the tables consulted.
	// l tables of k concatenated hashes; w is the p-stable bucket width.
	options := []index.Option{{Name: "l", Max: 256}, {Name: "k", Max: 64}, {Name: "w", Max: 1 << 16}, {Name: "pstable", Max: 1}, index.SeedOption}
	index.Register(index.Family{Name: "lsh", Knob: tuner.KnobNProbe, Metrics: []vec.Metric{vec.L2, vec.Cosine}, Options: options, Build: func(data []float32, n, d int, metric vec.Metric, opts map[string]int) (index.Index, error) {
		cfg := Config{L: opts["l"], K: opts["k"], W: float32(opts["w"]), Seed: int64(opts["seed"]), Metric: metric}
		// Direct Build callers who pick Hyperplane under L2 get the
		// historical cosine re-rank (metricOrL2); an index built from a
		// collection recipe must honor the collection metric, so L2
		// defaults to the p-stable family, which hashes L2 offsets.
		if metric == vec.L2 || opts["pstable"] != 0 {
			cfg.Family = PStable
		}
		return Build(data, n, d, cfg)
	}})
}
