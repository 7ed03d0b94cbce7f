// Package index defines the common contract implemented by every
// search index in Figure 1's Storage Manager (LSH, IVF, trees, graphs,
// disk indexes) plus the brute-force flat index, and a registry that
// maps index names to constructors for the CLI and query language.
package index

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"time"

	"vdbms/internal/bitset"
	"vdbms/internal/quant"
	"vdbms/internal/topk"
	"vdbms/internal/tuner"
	"vdbms/internal/vec"
)

// Params carries per-query search knobs. Zero values select each
// index's defaults. The two predicate fields implement the hybrid
// operators of Section 2.3: Allow is the bitmask of a block-first
// scan (built by attribute filtering before the index scan), while
// Filter is consulted during traversal for visit-first scans.
type Params struct {
	// NProbe is how many buckets/partitions to inspect (IVF, LSH
	// multi-probe, SPANN posting lists).
	NProbe int
	// Ef is the beam width for graph best-first search and the leaf
	// budget for tree indexes.
	Ef int
	// Allow, when non-nil, restricts results to ids whose bit is set
	// (block-first semantics). Indexes must never return a blocked id.
	Allow *bitset.Bitset
	// Filter, when non-nil, restricts results to ids it accepts
	// (visit-first semantics; evaluated during traversal).
	Filter func(id int64) bool
	// Stats, when non-nil, receives the work counters of this one query
	// from the backend — the only work accounting an index keeps, so
	// the executor can attribute it per query without cross-query
	// races. Each query must pass its own struct.
	Stats *SearchStats
	// RerankK, for indexes that scan quantized codes, overrides how
	// many approximate candidates are re-scored with full-precision
	// distances before the final top-k cut. 0 keeps the index's
	// configured (or default) re-rank width; it is ignored by
	// full-precision indexes.
	RerankK int
	// Ctx, when non-nil, cancels the search. Every registered family
	// polls it at its natural boundaries — a scan block, a popped beam
	// node, an inverted list, a hash bucket, a tree leaf — and returns
	// Ctx.Err() from the first boundary after it ends, with the work done
	// so far still counted in Stats. The unregistered disk indexes
	// (diskann, spann) rely on the executor's check at entry.
	Ctx context.Context
}

// Done returns the channel a search polls with Stopped: nil (never
// ready) when p carries no context or one that cannot be cancelled, so
// an uncancellable search pays one nil check per boundary. Each pool
// worker takes its own.
func (p *Params) Done() <-chan struct{} {
	if p.Ctx == nil {
		return nil
	}
	return p.Ctx.Done()
}

// Stopped reports whether done, from Params.Done, has closed.
func Stopped(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Err is the error of a search whose context has ended, nil while it
// runs: the context's, or context.DeadlineExceeded once the deadline
// has passed on the clock but the context's timer has not run yet —
// with every CPU busy it runs only once a goroutine yields, which a
// one-part scan never does.
func (p *Params) Err() error {
	if p.Ctx == nil {
		return nil
	}
	err := p.Ctx.Err()
	if d, ok := p.Ctx.Deadline(); err == nil && ok && time.Now().After(d) {
		err = context.DeadlineExceeded
	}
	return err
}

// SearchStats collects the work one Search call performed. Every
// family fills DistanceComps; the other fields only where they apply
// (e.g. BucketsProbed for IVF/LSH/spectral, NodesVisited for graphs,
// IOReads for disk indexes).
type SearchStats struct {
	// DistanceComps counts full-vector (or ADC-table) distance
	// computations: the rows a scan touched, cut short or not.
	DistanceComps int64
	// Abandoned counts the rows of DistanceComps an exact L2 scan cut
	// short: their partial distance already passed the collector's k-th
	// distance (or the range radius), so the rest of the row was never
	// read (vec.Bound.ScoreBlockWithin).
	Abandoned int64
	// NodesVisited counts graph nodes expanded or visited.
	NodesVisited int64
	// GreedyHops counts upper-layer greedy descents (HNSW).
	GreedyHops int64
	// BucketsProbed counts inverted lists / hash buckets scanned.
	BucketsProbed int64
	// IOReads counts disk reads: DiskANN records, SPANN posting-list
	// pages.
	IOReads int64
	// CacheHits counts record reads served from cache (DiskANN).
	CacheHits int64
	// Partitions counts the parallel scan partitions this query was
	// split into (1 for a serial scan).
	Partitions int64
}

// ScanWork is what one partition of a parallel scan did: the rows it
// scored and how many of them the scan's bound cut short. Partitions
// return one each; the search adds them up and records the sum once.
type ScanWork struct{ Comps, Cut int64 }

// Add folds another partition's work into w.
func (w *ScanWork) Add(o ScanWork) {
	w.Comps += o.Comps
	w.Cut += o.Cut
}

// Record adds w to the query's counters.
func (w ScanWork) Record(st *SearchStats) {
	st.DistanceComps += w.Comps
	st.Abandoned += w.Cut
}

// Admits reports whether id passes both predicate mechanisms.
func (p *Params) Admits(id int64) bool {
	if p.Allow != nil && !p.Allow.Test(int(id)) {
		return false
	}
	if p.Filter != nil && !p.Filter(id) {
		return false
	}
	return true
}

// Constrained reports whether any predicate is attached.
func (p *Params) Constrained() bool { return p.Allow != nil || p.Filter != nil }

// Index is a built approximate (or exact) nearest-neighbor structure
// over vectors identified by dense int64 ids.
type Index interface {
	// Name returns the index family name ("flat", "hnsw", ...).
	Name() string
	// Size returns the number of indexed vectors.
	Size() int
	// Search returns up to k results ordered by ascending distance.
	Search(q []float32, k int, p Params) ([]topk.Result, error)
}

// Remappable is implemented by indexes that can rebind themselves to
// a different backing column holding byte-identical vector content —
// the memory tier uses it to move a collection's float column between
// heap and mmap without rebuilding the index. Remap returns a shallow
// clone sharing the (immutable) graph structure and quantized codes
// but scoring against data; ok is false when the index cannot rebind
// (the caller then keeps the original, which pins the old column).
// Implementations must not mutate the receiver: published snapshots
// may still be searching it.
type Remappable interface {
	Remap(data []float32) (idx Index, ok bool)
}

// Extendable is implemented by indexes that can serve rows appended
// to their column without a rebuild. Extend returns an index over the
// rows [0, n) of data — the receiver's rows, which data holds as they
// were, plus the rows past them — sharing the receiver's structure;
// its Size is n. ok is false when the family cannot file rows (the
// caller then scans them beside the index). Implementations never
// write where an older version reads: they append past every older
// version's lengths, copy the slice headers they grow and rebind their
// scorer with View and Extend, the column's own append rules. So the
// receiver, and every version it was extended from, still answers as
// before — provided each version is extended at most once, the newest
// of the chain.
type Extendable interface {
	Extend(data []float32, n int) (idx Index, ok bool)
}

// Rebind points *sc at a view of itself scoring data, a column holding
// the same rows: the whole of Remap for an index that scores a column
// it does not own. Cached per-row state is content-derived and carries
// over. It reports false, leaving *sc alone, when data is too short.
func Rebind(sc **vec.Scorer, data []float32) bool {
	n := (*sc).Rows()
	if len(data) < n*(*sc).Dim() {
		return false
	}
	v := (*sc).View()
	v.Extend(data, n)
	*sc = v
	return true
}

// MemoryFootprint is implemented by indexes that can report their
// resident heap bytes for budget accounting: structure covers the
// graph/tree/bucket machinery, codes covers quantized code blocks
// (accounted separately because the eviction rung keeps codes hot
// while float columns move to the mmap tier).
type MemoryFootprint interface {
	MemoryBytes() (structure, codes int64)
}

// ErrBadK is returned when a non-positive k is requested.
var ErrBadK = errors.New("index: k must be positive")

// ErrDim is returned when a query's dimensionality differs from the
// index's.
var ErrDim = errors.New("index: query dimension mismatch")

// CheckQuery is the argument check every Search starts with: a positive
// k and a query of the index's dimension.
func CheckQuery(q []float32, k, dim int) error {
	if k <= 0 {
		return ErrBadK
	}
	if len(q) != dim {
		return fmt.Errorf("%w: query %d, index %d", ErrDim, len(q), dim)
	}
	return nil
}

// BuildFunc constructs an index over n row-major vectors of dimension
// d, scoring candidates with metric. Build calls it only with a metric
// the family declares and with opts whose every key the family
// declares, inside its range, so a BuildFunc reads its keys straight
// into its config: an absent key reads 0, which selects the default.
type BuildFunc func(data []float32, n, d int, metric vec.Metric, opts map[string]int) (Index, error)

// Option declares one opts key a family reads and the closed range of
// values Build lets through to it.
//
// Bounds follow one rule. A size or a flag has Min 0, which selects
// the family's default; a flag's Max is 1; a seed takes any int
// (SeedOption). A size's Max is at least four times the largest value
// any caller passes — counting strengthenRecipe's hnsw cap of m = 64
// and efc = 1 024 — and small enough that a build at Max on
// 1 000 × 16 rows finishes in seconds, so no recipe runs a build out
// of memory or time.
type Option struct {
	Name     string
	Min, Max int
}

// SeedOption is the "seed" key of every family that draws random
// numbers while it builds.
var SeedOption = Option{Name: "seed", Min: math.MinInt, Max: math.MaxInt}

// Family is the one declaration of an index family: how to build it
// and what it can do. Build's metric and option checks, the recall
// loop's tuned knob and the schema's quantization default all read it.
type Family struct {
	Name  string
	Build BuildFunc
	// Knob is the Params field the family's Search reads to trade work
	// for recall: the recall loop tunes it and a recall target resolves
	// to it.
	Knob tuner.Knob
	// Metrics lists the metrics the family honors. Build refuses any
	// other with ErrMetric rather than rank under the wrong distance.
	Metrics []vec.Metric
	// Options lists every opts key the family reads. Build refuses any
	// other key, and any value outside its range, with ErrOption.
	Options []Option
}

// option returns the family's declaration of key.
func (f Family) option(key string) (Option, bool) {
	for _, o := range f.Options {
		if o.Name == key {
			return o, true
		}
	}
	return Option{}, false
}

// checkOptions refuses an opts key f does not declare and a value
// outside its declared range. Keys are checked in sorted order, so the
// error names the same key on every call.
func (f Family) checkOptions(opts map[string]int) error {
	for _, key := range slices.Sorted(maps.Keys(opts)) {
		o, ok := f.option(key)
		if !ok {
			names := make([]string, len(f.Options))
			for i, o := range f.Options {
				names[i] = o.Name
			}
			return fmt.Errorf("%w: %s takes no option %q (it takes %v)", ErrOption, f.Name, key, names)
		}
		if v := opts[key]; v < o.Min || v > o.Max {
			return fmt.Errorf("%w: %s option %q = %d is outside [%d, %d]", ErrOption, f.Name, key, v, o.Min, o.Max)
		}
	}
	return nil
}

// AnyMetric is the Metrics of a family whose structure holds under
// every metric a collection serves (all that vec.NewScorer takes): it
// scores candidates with the collection's own scorer.
var AnyMetric = []vec.Metric{vec.L2, vec.InnerProduct, vec.Cosine, vec.L1, vec.Linf, vec.Hamming}

// ErrMetric is wrapped by the error Build returns for a metric the
// family does not declare.
var ErrMetric = errors.New("index: metric not supported by family")

// ErrOption is wrapped by the error Build returns for an option the
// family does not declare, a value outside its declared range, or a
// value the data cannot take (a product quantizer whose subquantizer
// count does not divide the dimension).
var ErrOption = errors.New("index: bad option")

var (
	regMu    sync.RWMutex
	registry = map[string]Family{}
)

// Register adds an index family to the registry. It panics on
// duplicate names (registration happens in package init only).
func Register(f Family) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[f.Name]; dup {
		panic("index: duplicate registration of " + f.Name)
	}
	registry[f.Name] = f
}

// Lookup returns the declaration of a registered family.
func Lookup(name string) (Family, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := registry[name]
	return f, ok
}

// Build constructs a registered index by name, scoring with metric.
func Build(name string, data []float32, n, d int, metric vec.Metric, opts map[string]int) (Index, error) {
	f, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("index: unknown index %q (known: %v)", name, Names())
	}
	if !slices.Contains(f.Metrics, metric) {
		return nil, fmt.Errorf("%w: %s honors %v, not %v", ErrMetric, name, f.Metrics, metric)
	}
	if err := f.checkOptions(opts); err != nil {
		return nil, err
	}
	idx, err := f.Build(data, n, d, metric, opts)
	if errors.Is(err, quant.ErrConfig) {
		return nil, fmt.Errorf("%w: %s: %w", ErrOption, name, err)
	}
	return idx, err
}

// Names lists registered families in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return slices.Sorted(maps.Keys(registry))
}
