package ivf

import (
	"fmt"

	"vdbms/internal/index"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// SearchBatch answers a batch of queries together, exploiting the
// commonality the paper highlights for batched workloads (Section
// 2.1(3), [50, 79]): instead of probing buckets query-by-query, the
// batch is inverted into bucket -> interested-queries lists so each
// bucket's vectors stream through the cache once while every query
// that probes the bucket consumes them. Results are identical to
// issuing the queries one at a time with the same nprobe, under the
// index's metric, and p.Stats receives the sum of their work.
//
// Only the Flat variant is supported (the quantized variants need a
// per-query ADC table anyway, which removes the shared work).
func (iv *IVF) SearchBatch(qs [][]float32, k int, p index.Params) ([][]topk.Result, error) {
	if iv.cfg.Variant != Flat {
		return nil, fmt.Errorf("ivf: SearchBatch supports the Flat variant only")
	}
	if k <= 0 {
		return nil, index.ErrBadK
	}
	for i, q := range qs {
		if len(q) != iv.dim {
			return nil, fmt.Errorf("%w: query %d has dim %d, index %d", index.ErrDim, i, len(q), iv.dim)
		}
	}
	nprobe := p.NProbe
	if nprobe <= 0 {
		nprobe = 1
	}
	// Invert: bucket -> queries probing it.
	interested := make([][]int32, iv.cents.K)
	probes := int64(0)
	for qi, q := range qs {
		for _, list := range iv.cents.NearestN(q, nprobe) {
			interested[list] = append(interested[list], int32(qi))
			probes++
		}
	}
	collectors := make([]*topk.Collector, len(qs))
	bound := make([]vec.Bound, len(qs))
	for i, q := range qs {
		collectors[i] = topk.NewCollector(k)
		bound[i] = iv.sc.Bind(q)
	}
	comps := int64(0)
	// Scan buckets in order; each member vector is read once per
	// bucket and scored against every interested query.
	for list, queries := range interested {
		if len(queries) == 0 {
			continue
		}
		for _, id := range iv.lists[list] {
			if !p.Admits(int64(id)) {
				continue
			}
			for _, qi := range queries {
				collectors[qi].Push(int64(id), bound[qi].ScoreAt(int(id)))
			}
			comps += int64(len(queries))
		}
	}
	if p.Stats != nil {
		p.Stats.DistanceComps += comps
		p.Stats.BucketsProbed += probes
	}
	out := make([][]topk.Result, len(qs))
	for i, c := range collectors {
		out[i] = c.Results()
	}
	return out, nil
}

// BucketOverlap reports how many (bucket, query) probe pairs the batch
// shares: pairs / distinct buckets probed. Higher overlap means more
// shared scanning for SearchBatch to exploit.
func (iv *IVF) BucketOverlap(qs [][]float32, nprobe int) float64 {
	if nprobe <= 0 {
		nprobe = 1
	}
	counts := map[int]int{}
	pairs := 0
	for _, q := range qs {
		for _, list := range iv.cents.NearestN(q, nprobe) {
			counts[list]++
			pairs++
		}
	}
	if len(counts) == 0 {
		return 0
	}
	return float64(pairs) / float64(len(counts))
}
