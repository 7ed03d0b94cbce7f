// Package tree implements the tree-based indexes of Section 2.2 as one
// structure: a forest of binary split nodes, searched best-first with
// one frontier shared by every tree. The families differ only in the
// rule a node splits by:
//
//   - kdtree: the widest-spread dimension, at the median (the classic
//     deterministic k-d tree);
//   - pcatree: the node's top principal axis, at the median;
//   - pkdtree: the dataset's global principal axes in turn by depth
//     (Silpa-Anan & Hartley);
//   - kdforest: a random dimension among the node's five widest
//     (FLANN's randomized k-d forest);
//   - rptree: a random Gaussian direction at a randomly perturbed median
//     (Dasgupta & Freund), which adapts to intrinsic dimensionality
//     without PCA preprocessing;
//   - annoy: the normal between two random member points, at the median
//     (Spotify's ANNOY).
//
// A forest of randomized trees is the standard recall remedy the paper
// describes, mirroring LSH's multiple tables.
package tree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"vdbms/internal/bitset"
	"vdbms/internal/index"
	"vdbms/internal/matrix"
	"vdbms/internal/topk"
	"vdbms/internal/tuner"
	"vdbms/internal/vec"
)

// Rule selects how a node picks its split.
type Rule int

const (
	// Widest splits on the widest-spread dimension (kdtree).
	Widest Rule = iota
	// NodePCA splits along the top principal axis of the node's points
	// (pcatree).
	NodePCA
	// PKD rotates through the dataset's global principal axes by depth
	// (pkdtree).
	PKD
	// RandomTop5 splits on a random dimension among the node's five
	// widest (kdforest).
	RandomTop5
	// RP splits along a random Gaussian direction at a perturbed median
	// (rptree).
	RP
	// Annoy splits along the normal between two random member points
	// (annoy).
	Annoy
)

// names holds each rule's registered index name.
var names = [...]string{"kdtree", "pcatree", "pkdtree", "kdforest", "rptree", "annoy"}

// Config controls construction.
type Config struct {
	Rule Rule
	// Trees is the forest size; default 1 for Widest, NodePCA and PKD,
	// 8 for the randomized rules.
	Trees    int
	LeafSize int // max points per leaf; default 16
	Seed     int64
	// PCAAxes bounds how many global principal axes PKD rotates
	// through; default 8.
	PCAAxes int
}

type node struct {
	axis        int       // split dimension when proj is nil
	proj        []float32 // split direction; nil for an axis split
	thresh      float32
	left, right *node
	ids         []int32 // leaf payload
}

// value is the coordinate of v along the node's split direction.
func (nd *node) value(v []float32) float32 {
	if nd.proj == nil {
		return v[nd.axis]
	}
	return vec.Dot(v, nd.proj)
}

// Forest is the built index.
type Forest struct {
	cfg   Config
	dim   int
	n     int
	sc    *vec.Scorer
	roots []*node
	axes  *matrix.Dense // PKD: global principal axes, row-major axes x dim
}

// maxDepth bounds the recursion on data that splits unevenly at every
// level; a node this deep becomes a leaf.
const maxDepth = 48

// Build constructs the forest.
func Build(data []float32, n, d int, cfg Config) (*Forest, error) {
	if d <= 0 || n <= 0 || len(data) < n*d {
		return nil, fmt.Errorf("tree: bad data shape n=%d d=%d len=%d", n, d, len(data))
	}
	if cfg.Rule < 0 || int(cfg.Rule) >= len(names) {
		return nil, fmt.Errorf("tree: unknown rule %d", cfg.Rule)
	}
	if cfg.LeafSize <= 0 {
		cfg.LeafSize = 16
	}
	if cfg.Trees <= 0 {
		cfg.Trees = 1
		if cfg.Rule >= RandomTop5 {
			cfg.Trees = 8
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.PCAAxes <= 0 {
		cfg.PCAAxes = 8
	}
	sc, err := vec.NewScorer(vec.L2, data, n, d)
	if err != nil {
		return nil, fmt.Errorf("tree: %w", err)
	}
	f := &Forest{cfg: cfg, dim: d, n: n, sc: sc}
	if cfg.Rule == PKD {
		f.axes, _ = matrix.PCA(data, n, d, min(cfg.PCAAxes, d))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for range cfg.Trees {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		f.roots = append(f.roots, f.build(ids, 0, rng))
	}
	return f, nil
}

func (f *Forest) row(id int32) []float32 {
	return f.sc.Data()[int(id)*f.dim : (int(id)+1)*f.dim]
}

// build splits ids by the forest's rule until leaves hold at most
// LeafSize points. Every rule draws from rng in a fixed order, so a
// seed pins the forest.
func (f *Forest) build(ids []int32, depth int, rng *rand.Rand) *node {
	if len(ids) <= f.cfg.LeafSize || depth > maxDepth {
		return &node{ids: ids}
	}
	nd := &node{}
	switch f.cfg.Rule {
	case Widest:
		nd.axis = f.widestDim(ids, 0)
	case RandomTop5:
		nd.axis = f.widestDim(ids, rng.Intn(5))
	case NodePCA:
		nd.proj = f.nodePCA(ids)
	case PKD:
		row := f.axes.Row(depth % f.axes.Rows)
		nd.proj = make([]float32, f.dim)
		for j, x := range row {
			nd.proj[j] = float32(x)
		}
	case RP:
		nd.proj = make([]float32, f.dim)
		for j := range nd.proj {
			nd.proj[j] = float32(rng.NormFloat64())
		}
		vec.Normalize(nd.proj)
	case Annoy:
		if nd.proj = f.twoPointNormal(ids, rng); nd.proj == nil {
			return &node{ids: ids}
		}
	}
	vals := make([]float32, len(ids))
	for i, id := range ids {
		vals[i] = nd.value(f.row(id))
	}
	sorted := append([]float32(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := len(sorted) / 2
	if f.cfg.Rule == RP {
		// Perturbed median: a uniform quantile in [0.25, 0.75], the
		// randomized-threshold rule that gives RPTree its guarantees.
		qt := 0.25 + 0.5*rng.Float64()
		at = int(qt * float64(len(sorted)-1))
	}
	nd.thresh = sorted[at]
	var left, right []int32
	for i, id := range ids {
		if vals[i] < nd.thresh {
			left = append(left, id)
		} else {
			right = append(right, id)
		}
	}
	// Degenerate split (many duplicates): fall back to a leaf.
	if len(left) == 0 || len(right) == 0 {
		return &node{ids: ids}
	}
	nd.left = f.build(left, depth+1, rng)
	nd.right = f.build(right, depth+1, rng)
	return nd
}

// mean is the centroid of the subset's points.
func (f *Forest) mean(ids []int32) []float64 {
	mean := make([]float64, f.dim)
	for _, id := range ids {
		for j, x := range f.row(id) {
			mean[j] += float64(x)
		}
	}
	for j := range mean {
		mean[j] /= float64(len(ids))
	}
	return mean
}

// widestDim returns the rank-th widest-variance dimension of the
// subset (rank 0 = widest).
func (f *Forest) widestDim(ids []int32, rank int) int {
	d := f.dim
	mean := f.mean(ids)
	vars := make([]float64, d)
	for _, id := range ids {
		for j, x := range f.row(id) {
			dv := float64(x) - mean[j]
			vars[j] += dv * dv
		}
	}
	order := make([]int, d)
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool { return vars[order[a]] > vars[order[b]] })
	return order[min(rank, d-1)]
}

// nodePCA finds the dominant principal axis of a subset via a few
// power iterations on the subset covariance (cheaper than full Jacobi
// at every node).
func (f *Forest) nodePCA(ids []int32) []float32 {
	d := f.dim
	mean := f.mean(ids)
	v := make([]float64, d)
	for j := range v {
		v[j] = 1 / float64(d)
	}
	tmp := make([]float64, d)
	for iter := 0; iter < 8; iter++ {
		for j := range tmp {
			tmp[j] = 0
		}
		// tmp = Cov * v computed as sum over points of (x-mu)((x-mu)·v)
		for _, id := range ids {
			row := f.row(id)
			var dot float64
			for j, x := range row {
				dot += (float64(x) - mean[j]) * v[j]
			}
			for j, x := range row {
				tmp[j] += (float64(x) - mean[j]) * dot
			}
		}
		var norm float64
		for _, x := range tmp {
			norm += x * x
		}
		if norm == 0 {
			break
		}
		inv := 1 / math.Sqrt(norm)
		for j := range v {
			v[j] = tmp[j] * inv
		}
	}
	out := make([]float32, d)
	for j, x := range v {
		out[j] = float32(x)
	}
	return out
}

// twoPointNormal returns the unit normal between two random member
// points, or nil when every draw coincides.
func (f *Forest) twoPointNormal(ids []int32, rng *rand.Rand) []float32 {
	a := f.row(ids[rng.Intn(len(ids))])
	var b []float32
	for try := 0; try < 8; try++ {
		b = f.row(ids[rng.Intn(len(ids))])
		if vec.SquaredL2(a, b) > 0 {
			break
		}
	}
	p := make([]float32, f.dim)
	for j := range p {
		p[j] = a[j] - b[j]
	}
	if vec.Norm(p) == 0 {
		return nil
	}
	vec.Normalize(p)
	return p
}

// Name implements index.Index.
func (f *Forest) Name() string { return names[f.cfg.Rule] }

// Size implements index.Index.
func (f *Forest) Size() int { return f.n }

// branch is an unexplored subtree on the search frontier with the
// squared-L2 lower bound of its points.
type branch struct {
	nd    *node
	bound float32
}

// Search implements index.Index with FLANN-style shared best-first
// traversal over all trees: a priority queue orders unexplored branches
// by their lower-bound distance, and each leaf reached is scored by one
// index.Scan. Search stops after scoring p.Ef points (default
// max(64, 8k)), or at the first leaf after p.Ctx ends. A point sits in
// one leaf of every tree, so ids an earlier tree offered are dropped
// before they are scored.
func (f *Forest) Search(q []float32, k int, p index.Params) ([]topk.Result, error) {
	if err := index.CheckQuery(q, k, f.dim); err != nil {
		return nil, err
	}
	budget := p.Ef
	if budget <= 0 {
		budget = max(64, 8*k)
	}
	var pq topk.MinQueue
	var frontier []branch
	push := func(nd *node, bound float32) {
		frontier = append(frontier, branch{nd, bound})
		pq.Push(int64(len(frontier)-1), bound)
	}
	for _, root := range f.roots {
		push(root, 0)
	}
	var seen *bitset.Bitset
	if len(f.roots) > 1 {
		seen = bitset.New(f.n)
	}
	s := index.NewScan(f.sc, q, k, &p)
	var fresh []int32
	for pq.Len() > 0 && s.Work.Comps < int64(budget) {
		e := frontier[pq.Pop().ID]
		if e.bound > s.Worst() {
			// Bounds are per branch, not global: skip this one only.
			continue
		}
		nd := e.nd
		for nd.ids == nil {
			margin := nd.value(q) - nd.thresh
			near, far := nd.right, nd.left
			if margin < 0 {
				near, far = nd.left, nd.right
			}
			push(far, e.bound+margin*margin)
			nd = near
		}
		leaf := nd.ids
		if seen != nil {
			fresh = fresh[:0]
			for _, id := range leaf {
				if !seen.Test(int(id)) {
					seen.Set(int(id))
					fresh = append(fresh, id)
				}
			}
			leaf = fresh
		}
		if !s.Bucket(leaf) {
			break
		}
	}
	return s.Finish(0)
}

// Remap implements index.Remappable: the trees are shared, and only the
// scorer is rebound to data.
func (f *Forest) Remap(data []float32) (index.Index, bool) {
	f2 := *f
	if !index.Rebind(&f2.sc, data) {
		return nil, false
	}
	return &f2, true
}

func init() {
	// The deterministic rules never draw from their rng, so every seed
	// builds the same tree and a forest of them repeats it: they take a
	// leaf size only.
	leaf := index.Option{Name: "leaf", Max: 4096}
	for r, name := range names {
		options := []index.Option{leaf}
		if Rule(r) >= RandomTop5 {
			options = []index.Option{{Name: "trees", Max: 256}, leaf, index.SeedOption}
		}
		// Axis and hyperplane margins bound squared L2 only.
		index.Register(index.Family{Name: name, Knob: tuner.KnobEf, Metrics: []vec.Metric{vec.L2}, Options: options, Build: func(data []float32, n, d int, _ vec.Metric, opts map[string]int) (index.Index, error) {
			return Build(data, n, d, Config{Rule: Rule(r), Trees: opts["trees"], LeafSize: opts["leaf"], Seed: int64(opts["seed"])})
		}})
	}
}
