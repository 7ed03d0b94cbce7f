package graph

import (
	"fmt"

	"vdbms/internal/index"
	"vdbms/internal/topk"
)

// Index serves every graph family. The families differ only in how
// they choose edges (Section 2.2); once built, each is a frozen graph,
// the entry points its search starts from and, for HNSW, the sparser
// layers above the base that a query descends greedily to find a
// better start. So one type searches, rebinds and accounts them all.
type Index struct {
	name string
	s    *Searcher
	// layers holds the frozen graph, base layer first. A query walks
	// greedily down the layers above the base, then beam-searches it.
	layers  []Neighborhoods
	entries []int32
	n       int
	quant   index.QuantSpec
}

// NewIndex freezes the layers a family constructed, base layer first
// (the base as a dense Slab, each sparser layer above it as a
// sparseSlab), and serves them as name, starting every search from
// entries (HNSW descends from its single top entry). When spec selects
// a codec the quantized kernel is trained here, after construction:
// insertion and pruning compare stored rows pairwise at full
// precision, which codes cannot serve, so only the finished graph's
// traversal scans codes.
func NewIndex(name string, s *Searcher, layers []Adjacency, entries []int32, spec index.QuantSpec) (*Index, error) {
	g := &Index{name: name, s: s, entries: entries, n: len(layers[0]), quant: spec,
		layers: make([]Neighborhoods, len(layers))}
	g.layers[0] = Freeze(layers[0])
	for l, adj := range layers[1:] {
		g.layers[l+1] = freezeSparse(adj)
	}
	qsc, err := index.BuildQuantKernel(spec, s.Scorer.Metric(), s.Data, g.n, s.Dim)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	s.Quant = qsc
	return g, nil
}

// Name implements index.Index.
func (g *Index) Name() string { return g.name }

// Size implements index.Index.
func (g *Index) Size() int { return g.n }

// Layers returns the frozen graph, base layer first.
func (g *Index) Layers() []Neighborhoods { return g.layers }

// Entries returns the nodes every search starts from: HNSW's top
// entry, NSW's first node, the medoid of NSG, Vamana and FANNG, or a
// KNNG's strided entries.
func (g *Index) Entries() []int32 { return g.entries }

// QuantizedScan implements index.Quantized.
func (g *Index) QuantizedScan() bool { return g.s.Quant != nil }

// ScoringBytes reports the resident bytes the traversal scoring path
// touches — codes when quantized, float32 rows otherwise — the
// numerator of the compression claim (adjacency is identical either
// way and excluded).
func (g *Index) ScoringBytes() int {
	if g.s.Quant != nil {
		return g.n * g.s.Quant.BytesPerRow()
	}
	return g.n * g.s.Dim * 4
}

// MemoryBytes implements index.MemoryFootprint: the frozen layers, and
// the quantized code block.
func (g *Index) MemoryBytes() (structure, codes int64) {
	for _, l := range g.layers {
		structure += int64(NeighborhoodBytes(l))
	}
	if g.s.Quant != nil {
		codes = int64(g.s.Quant.BytesPerRow()) * int64(g.n)
	}
	return structure, codes
}

// Remap implements index.Remappable: a shallow clone searching data
// instead of the column the index was built over. The frozen layers,
// entries and quantized codes are immutable and shared; only the
// Searcher (and its scorer's data pointer) is fresh.
func (g *Index) Remap(data []float32) (index.Index, bool) {
	s := *g.s
	if !index.Rebind(&s.Scorer, data) {
		return nil, false
	}
	s.Data = data
	g2 := *g
	g2.s = &s
	return &g2, true
}

// Search implements index.Index: greedy descent through the layers
// above the base, then beam search with width p.Ef on the base layer.
// A quantized traversal widens its candidates to rerank_k and re-scores
// them exactly.
func (g *Index) Search(q []float32, k int, p index.Params) ([]topk.Result, error) {
	if err := index.CheckQuery(q, k, g.s.Dim); err != nil {
		return nil, err
	}
	ef := p.Ef
	if ef <= 0 {
		ef = max(4*k, 32)
	}
	kk := k
	if g.s.Quant != nil {
		kk = g.quant.ResolveRerankK(p, k, g.n)
		ef = max(ef, kk)
	}
	// The descent and the base-layer search share one scratch, so the
	// query's stats count the descent's comparisons too.
	t := g.s.Begin(q)
	seeds := t.Score(g.entries)
	if top := len(g.layers) - 1; top > 0 {
		ep := seeds[0]
		for l := top; l >= 1; l-- {
			ep = t.GreedyWalk(g.layers[l], ep)
			if p.Stats != nil {
				p.Stats.GreedyHops++
			}
		}
		seeds = append(seeds[:0], ep)
	}
	res, err := t.BeamSearch(g.layers[0], seeds, kk, ef, &p)
	t.End(p.Stats)
	if err != nil {
		return nil, err
	}
	if g.s.Quant != nil {
		if p.Stats != nil {
			p.Stats.DistanceComps += int64(len(res))
		}
		res = index.RerankExact(g.s.Scorer, q, res, k)
	}
	return res, nil
}
