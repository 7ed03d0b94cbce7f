// Package ivf implements the inverted-file family of Section 2.2:
// vectors are bucketed by k-means ("learning to hash" style learned
// partitioning) and queries scan the nprobe closest buckets.
// Three storage variants mirror the paper's taxonomy:
//
//   - IVFFlat: buckets hold raw vectors (exact re-ranking).
//   - IVFSQ: buckets hold 8-bit scalar-quantized codes.
//   - IVFADC: buckets hold product-quantization codes scanned with a
//     per-query asymmetric distance table (Jégou et al.).
package ivf

import (
	"fmt"
	"sync"

	"vdbms/internal/index"
	"vdbms/internal/kmeans"
	"vdbms/internal/obs"
	"vdbms/internal/pool"
	"vdbms/internal/quant"
	"vdbms/internal/topk"
	"vdbms/internal/tuner"
	"vdbms/internal/vec"
)

// Variant selects bucket storage.
type Variant int

const (
	// Flat stores raw vectors in each bucket.
	Flat Variant = iota
	// SQ stores 8-bit scalar-quantized codes.
	SQ
	// ADC stores product-quantization codes and scans with ADC tables.
	ADC
)

// Config controls construction.
type Config struct {
	NList   int     // number of buckets; default sqrt-ish heuristic
	Variant Variant // default Flat
	// PQ settings for the ADC variant.
	PQM  int // subquantizers; default 8 (must divide dim)
	PQKs int // centroids per subquantizer; default 256
	// Residual, when true, encodes vectors relative to their bucket
	// centroid (the IVFADC formulation); ignored for Flat.
	Residual bool
	Seed     int64
	MaxIter  int
	// Metric is the distance candidates are scored under. The Flat
	// variant honors any Scorer metric; SQ and ADC codes/LUTs
	// decompose squared L2 only, so those variants reject any other
	// metric at build time instead of silently L2-ranking (the bug
	// this field fixes: Build used to hardcode vec.L2 for everything).
	Metric vec.Metric
	// RerankK is how many quantized candidates (SQ/ADC variants) get
	// exact re-scoring on the retained raw vectors before the top-k
	// cut; 0 selects the per-query default max(4k, 32).
	RerankK int
}

// IVF is the built index.
type IVF struct {
	cfg     Config
	dim     int
	n       int
	sc      *vec.Scorer // scores the raw vectors: Flat scan and re-ranking
	cents   *kmeans.Result
	lists   [][]int32       // bucket -> member ids
	sqk     vec.QuantScorer // SQ variant: decode-free LUT kernel over 8-bit codes
	pq      *quant.PQ
	pqCodes []byte // n * M, ADC variant
}

// Build trains the coarse quantizer and populates buckets.
func Build(data []float32, n, d int, cfg Config) (*IVF, error) {
	if d <= 0 || n <= 0 || len(data) < n*d {
		return nil, fmt.Errorf("ivf: bad data shape n=%d d=%d len=%d", n, d, len(data))
	}
	if cfg.NList <= 0 {
		cfg.NList = defaultNList(n)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 20
	}
	if cfg.Variant != Flat && cfg.Metric != vec.L2 {
		return nil, fmt.Errorf("ivf: %s requires l2 (codes and ADC tables decompose squared L2 only), got metric %v",
			variantName(cfg.Variant), cfg.Metric)
	}
	cents, err := kmeans.Train(data, n, d, kmeans.Config{K: cfg.NList, Seed: cfg.Seed, MaxIter: cfg.MaxIter})
	if err != nil {
		return nil, fmt.Errorf("ivf: coarse quantizer: %w", err)
	}
	sc, err := vec.NewScorer(cfg.Metric, data, n, d)
	if err != nil {
		return nil, fmt.Errorf("ivf: %w", err)
	}
	iv := &IVF{cfg: cfg, dim: d, n: n, sc: sc, cents: cents, lists: make([][]int32, cents.K)}
	for id, c := range cents.Assign {
		iv.lists[c] = append(iv.lists[c], int32(id))
	}
	switch cfg.Variant {
	case Flat:
	case SQ:
		if iv.sqk, err = index.BuildQuantKernel(index.QuantSpec{Kind: index.QuantSQ8}, vec.L2, data, n, d); err != nil {
			return nil, err
		}
	case ADC:
		if cfg.PQM <= 0 {
			cfg.PQM = 8
		}
		if cfg.PQKs <= 0 {
			cfg.PQKs = 256
		}
		iv.cfg = cfg
		train := data
		if cfg.Residual {
			train = make([]float32, n*d)
			for id := 0; id < n; id++ {
				cent := cents.Centroid(cents.Assign[id])
				row := data[id*d : (id+1)*d]
				out := train[id*d : (id+1)*d]
				for j := range out {
					out[j] = row[j] - cent[j]
				}
			}
		}
		pq, err := quant.TrainPQ(train, n, d, quant.PQConfig{M: cfg.PQM, Ks: cfg.PQKs, Seed: cfg.Seed, MaxIter: cfg.MaxIter})
		if err != nil {
			return nil, err
		}
		iv.pq = pq
		iv.pqCodes = make([]byte, n*pq.M)
		for id := 0; id < n; id++ {
			pq.Encode(train[id*d:(id+1)*d], iv.pqCodes[id*pq.M:(id+1)*pq.M])
		}
	default:
		return nil, fmt.Errorf("ivf: unknown variant %d", cfg.Variant)
	}
	return iv, nil
}

func defaultNList(n int) int {
	nl := 1
	for nl*nl < n {
		nl++
	}
	if nl < 4 {
		nl = 4
	}
	return nl
}

// Name implements index.Index.
func (iv *IVF) Name() string { return variantName(iv.cfg.Variant) }

func variantName(v Variant) string {
	switch v {
	case SQ:
		return "ivfsq"
	case ADC:
		return "ivfadc"
	default:
		return "ivfflat"
	}
}

// QuantizedScan implements index.Quantized: the SQ and ADC variants
// scan codes and re-rank.
func (iv *IVF) QuantizedScan() bool { return iv.cfg.Variant != Flat }

// Size implements index.Index.
func (iv *IVF) Size() int { return iv.n }

// NList returns the number of buckets.
func (iv *IVF) NList() int { return iv.cents.K }

// ListMembers exposes bucket membership for index-guided sharding
// (Section 2.3(2)) and offline-blocking experiments.
func (iv *IVF) ListMembers(list int) []int32 { return iv.lists[list] }

// ScannedFraction returns the fraction of the collection scanned for
// a given nprobe, the cost proxy E3 reports.
func (iv *IVF) ScannedFraction(q []float32, nprobe int) float64 {
	if nprobe <= 0 {
		nprobe = 1
	}
	total := 0
	for _, l := range iv.cents.NearestN(q, nprobe) {
		total += len(iv.lists[l])
	}
	return float64(total) / float64(iv.n)
}

// FiltersConcurrently implements index.ConcurrentFilter: the probed
// lists are split across workers whenever Search would use more than
// one (nprobe is the task count it sizes the fan-out by).
func (iv *IVF) FiltersConcurrently(p index.Params) bool {
	nprobe := min(max(p.NProbe, 1), iv.cents.K)
	return pool.Default().Effective(p.Parallelism, nprobe) > 1
}

// Search implements index.Index. p.NProbe selects how many buckets to
// scan (default 1).
//
// The selected inverted lists are partitioned into p.Parallelism
// contiguous groups scanned concurrently, each into its own collector,
// merged at the end. Per-list work (including the per-list residual
// ADC table) is computed identically in every schedule, so results are
// byte-identical at every worker count. Every worker polls p.Ctx before
// each list; a cancelled probe returns its context's error with the
// rows it did score counted.
func (iv *IVF) Search(q []float32, k int, p index.Params) ([]topk.Result, error) {
	if k <= 0 {
		return nil, index.ErrBadK
	}
	if len(q) != iv.dim {
		return nil, fmt.Errorf("%w: query %d, index %d", index.ErrDim, len(q), iv.dim)
	}
	nprobe := p.NProbe
	if nprobe <= 0 {
		nprobe = 1
	}
	var sharedADC *quant.ADCTable
	if iv.cfg.Variant == ADC && !iv.cfg.Residual {
		// One query-relative table serves every list; workers only read it.
		sharedADC = iv.pq.ADC(q)
	}
	// Quantized variants widen the candidate cut to rerank_k and
	// re-score it exactly on the retained raw vectors after the merge.
	kk := k
	if iv.cfg.Variant != Flat {
		kk = (index.QuantSpec{RerankK: iv.cfg.RerankK}).ResolveRerankK(p, k, iv.n)
	}
	lists := iv.cents.NearestN(q, nprobe)
	w := pool.Default().Effective(p.Parallelism, len(lists))
	var merged *topk.Collector
	var work index.ScanWork
	if w <= 1 {
		merged = topk.NewCollector(kk)
		work = iv.scanLists(q, merged, lists, &p, sharedADC)
	} else {
		obs.ParallelSearches.With(iv.Name()).Inc()
		offs := pool.Split(len(lists), w)
		collectors := make([]*topk.Collector, w)
		workBy := make([]index.ScanWork, w)
		pool.Default().Run(w, func(i int) {
			c := topk.NewCollector(kk)
			workBy[i] = iv.scanLists(q, c, lists[offs[i]:offs[i+1]], &p, sharedADC)
			collectors[i] = c
		})
		merged = collectors[0]
		work = workBy[0]
		for i := 1; i < w; i++ {
			merged.Merge(collectors[i])
			work.Add(workBy[i])
		}
	}
	// A worker that stopped early left done closed for good, so this one
	// check sees every early stop.
	stopped := index.Stopped(p.Done())
	var res []topk.Result
	if !stopped {
		res = merged.Results()
		if iv.cfg.Variant != Flat {
			work.Comps += int64(len(res))
			res = index.RerankExact(iv.sc, q, res, k)
		}
	}
	if p.Stats != nil {
		work.Record(p.Stats)
		p.Stats.BucketsProbed += int64(len(lists))
		if w < 1 {
			w = 1
		}
		p.Stats.Partitions += int64(w)
	}
	if stopped {
		return nil, p.Err()
	}
	return res, nil
}

// listScanBlock is the gather-buffer size for Flat-variant list
// scanning: admitted member ids accumulate until a block is full, then
// one kernel call scores them all. A package variable so tests can
// sweep it.
var listScanBlock = 256

// scanLists scores every admitted member of the given inverted lists
// into c and returns the rows it scored and how many of them the bound
// cut short, polling p.Ctx before each list and stopping once it has
// ended. sharedADC is the query-relative table for the non-residual ADC
// variant (nil otherwise); the residual variant builds a per-list table
// locally so concurrent workers never share mutable state.
func (iv *IVF) scanLists(q []float32, c *topk.Collector, lists []int, p *index.Params, sharedADC *quant.ADCTable) (work index.ScanWork) {
	switch iv.cfg.Variant {
	case Flat:
		return iv.scanListsBlocked(iv.sc.Bind(q), c, lists, p)
	case SQ:
		// The decode-free LUT kernel shares the gather-block shape of
		// the Flat scan: build the d×256 table once per worker, then
		// every admitted member costs d byte-indexed lookups.
		return iv.scanListsBlocked(vec.Uncut{QuantBound: iv.sqk.Bind(q)}, c, lists, p)
	}
	adc := sharedADC
	var resid []float32
	if iv.cfg.Residual {
		resid = make([]float32, iv.dim)
	}
	done := p.Done()
	for _, list := range lists {
		if index.Stopped(done) {
			break
		}
		if iv.cfg.Residual {
			cent := iv.cents.Centroid(list)
			for j := range resid {
				resid[j] = q[j] - cent[j]
			}
			adc = iv.pq.ADC(resid)
		}
		for _, id := range iv.lists[list] {
			if !p.Admits(int64(id)) {
				continue
			}
			d := adc.Distance(iv.pqCodes[int(id)*iv.pq.M : (int(id)+1)*iv.pq.M])
			work.Comps++
			c.Push(int64(id), d)
		}
	}
	return work
}

// blockScorer is the shared slice of the Bind contract (float Bound
// and vec.Uncut both satisfy it), so the gather-block list scan below
// serves the Flat and SQ variants with the same code.
type blockScorer interface {
	ScoreIDsWithin(ids []int32, out []float32, bound float32) int
}

// listBuf is the scratch of one list-scanning worker — the ids gathered
// for a block and the distances the kernel writes for them — pooled, as
// Flat's gather buffer is, so a probe allocates neither.
type listBuf struct {
	ids  []int32
	dist []float32
}

var listBufs = sync.Pool{New: func() any { return new(listBuf) }}

// scanListsBlocked scores the admitted members of the lists in blocks
// through b, each block within c's k-th distance as Flat's scan does.
// Without a predicate every member is admitted, so each list goes to
// the kernel as it is stored, block by block; under one, the admitted
// ids are gathered across lists into a block first. Only admitted rows
// are scored (and counted), exactly like the per-row path.
func (iv *IVF) scanListsBlocked(b blockScorer, c *topk.Collector, lists []int, p *index.Params) (work index.ScanWork) {
	buf := listBufs.Get().(*listBuf)
	defer listBufs.Put(buf)
	if cap(buf.ids) < listScanBlock {
		buf.ids, buf.dist = make([]int32, 0, listScanBlock), make([]float32, listScanBlock)
	}
	ids, dist := buf.ids[:0], buf.dist[:listScanBlock]
	score := func(ids []int32) {
		work.Cut += int64(b.ScoreIDsWithin(ids, dist[:len(ids)], c.Worst()))
		c.PushIDs(ids, dist)
		work.Comps += int64(len(ids))
	}
	done := p.Done()
	if !p.Constrained() {
		for _, list := range lists {
			if index.Stopped(done) {
				return work
			}
			for members := iv.lists[list]; len(members) > 0; {
				n := min(len(members), listScanBlock)
				score(members[:n])
				members = members[n:]
			}
		}
		return work
	}
	for _, list := range lists {
		if index.Stopped(done) {
			return work
		}
		for _, id := range iv.lists[list] {
			if !p.Admits(int64(id)) {
				continue
			}
			ids = append(ids, id)
			if len(ids) == listScanBlock {
				score(ids)
				ids = ids[:0]
			}
		}
	}
	score(ids)
	return work
}

func init() {
	// Each variant declares only the keys its build reads: m, ks and
	// residual shape ADC's product quantizer (at most 256 centroids per
	// subquantizer, one-byte codes), and rerank_k the code scans'
	// re-rank. K-means clamps nlist to the rows.
	nlist := index.Option{Name: "nlist", Max: 1 << 16}
	flat := []index.Option{nlist, index.SeedOption}
	sq := []index.Option{nlist, index.SeedOption, index.RerankOption}
	adc := []index.Option{nlist, index.SeedOption, index.RerankOption, {Name: "m", Max: 256}, {Name: "ks", Max: 256}, {Name: "residual", Max: 1}}
	l2 := []vec.Metric{vec.L2}
	index.Register(index.Family{Name: "ivfflat", Build: buildFunc(Flat), Knob: tuner.KnobNProbe, Metrics: index.AnyMetric, Options: flat})
	index.Register(index.Family{Name: "ivfsq", Build: buildFunc(SQ), Knob: tuner.KnobNProbe, Metrics: l2, Options: sq})
	index.Register(index.Family{Name: "ivfadc", Build: buildFunc(ADC), Knob: tuner.KnobNProbe, Metrics: l2, Options: adc})
}

func buildFunc(v Variant) index.BuildFunc {
	return func(data []float32, n, d int, metric vec.Metric, opts map[string]int) (index.Index, error) {
		return Build(data, n, d, Config{Variant: v, NList: opts["nlist"], PQM: opts["m"], PQKs: opts["ks"], Residual: opts["residual"] != 0,
			Seed: int64(opts["seed"]), RerankK: opts["rerank_k"], Metric: metric})
	}
}
