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
	"slices"

	"vdbms/internal/index"
	"vdbms/internal/kmeans"
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
	return max(nl, 4)
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

// Search implements index.Index. p.NProbe selects how many buckets to
// scan (default 1).
//
// The selected inverted lists are scanned in one part on the calling
// goroutine, as every scan inside an index probe is (index.Fanout).
// Per-list work (including the per-list residual ADC table) is computed
// the same way whatever the lists' grouping, so a split scan would
// return the same bytes. The scan polls p.Ctx before each list; a
// cancelled probe returns its context's error with the rows it did
// score counted.
func (iv *IVF) Search(q []float32, k int, p index.Params) ([]topk.Result, error) {
	if err := index.CheckQuery(q, k, iv.dim); err != nil {
		return nil, err
	}
	lists := iv.cents.NearestN(q, max(p.NProbe, 1))
	fan := index.Fanout{Name: iv.Name(), Exact: iv.sc, Tasks: len(lists), Buckets: len(lists)}
	if iv.cfg.Variant != Flat {
		// Quantized variants widen the candidate cut to rerank_k and
		// re-score it exactly on the retained raw vectors.
		fan.RerankK = (index.QuantSpec{RerankK: iv.cfg.RerankK}).ResolveRerankK(p, k, iv.n)
	}
	switch iv.cfg.Variant {
	case SQ:
		// The decode-free LUT kernel is bound once per worker: every
		// admitted member then costs d byte-indexed lookups.
		fan.Quant = iv.sqk
	case ADC:
		return fan.Search(q, k, &p, iv.adcPart(q, lists, &p))
	}
	return fan.Search(q, k, &p, func(s *index.Scan, lo, hi int) {
		for _, list := range lists[lo:hi] {
			if !s.List(iv.lists[list]) {
				return
			}
		}
	})
}

// adcPart returns the partition body of an ADC probe over lists: every
// admitted member of each list costs one lookup per subquantizer in the
// query's distance table. The non-residual variant shares one
// query-relative table across workers, which only read it; the residual
// variant builds each list's table locally, so workers never share
// mutable state.
func (iv *IVF) adcPart(q []float32, lists []int, p *index.Params) func(s *index.Scan, lo, hi int) {
	var shared *quant.ADCTable
	if !iv.cfg.Residual {
		shared = iv.pq.ADC(q)
	}
	return func(s *index.Scan, lo, hi int) {
		adc := shared
		var resid []float32
		if iv.cfg.Residual {
			resid = make([]float32, iv.dim)
		}
		for _, list := range lists[lo:hi] {
			if s.Stopped() {
				return
			}
			if iv.cfg.Residual {
				cent := iv.cents.Centroid(list)
				for j := range resid {
					resid[j] = q[j] - cent[j]
				}
				adc = iv.pq.ADC(resid)
			}
			for _, id := range iv.lists[list] {
				if p.Admits(int64(id)) {
					s.Push(id, adc.Distance(iv.pqCodes[int(id)*iv.pq.M:(int(id)+1)*iv.pq.M]))
				}
			}
		}
	}
}

// Remap implements index.Remappable: the lists, centroids and codes are
// shared, and only the scorer of the raw vectors is rebound to data.
func (iv *IVF) Remap(data []float32) (index.Index, bool) {
	iv2 := *iv
	if !index.Rebind(&iv2.sc, data) {
		return nil, false
	}
	return &iv2, true
}

// Extend implements index.Extendable for the Flat variant: each row of
// [Size(), n) is filed into the list of its nearest centroid, the
// centroids as trained. The copy gets its own list headers and its rows
// land past every list's end, so the receiver keeps its lists as they
// were; the scorer is rebound onto data and extended over the new rows.
// The code variants would need codes for the new rows and refuse.
func (iv *IVF) Extend(data []float32, n int) (index.Index, bool) {
	if iv.cfg.Variant != Flat || n < iv.n || len(data) < n*iv.dim {
		return nil, false
	}
	iv2 := *iv
	iv2.n = n
	iv2.sc = iv.sc.View()
	iv2.sc.Extend(data, n)
	iv2.lists = slices.Clone(iv.lists)
	for id := iv.n; id < n; id++ {
		list, _ := iv.cents.Nearest(data[id*iv.dim : (id+1)*iv.dim])
		iv2.lists[list] = append(iv2.lists[list], int32(id))
	}
	return &iv2, true
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
