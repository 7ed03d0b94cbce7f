package index

import (
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/quant"
	"vdbms/internal/vec"
)

// portableL2 and portableDot are the loops of vec's portable kernel tier
// (four stride-4 accumulators), copied here because that tier is not
// exported: BenchmarkFlatScan's generic rows scan with them, so the
// file records what the scan costs where the assembly is not available.
func portableL2(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0, d1, d2, d3 := a[i]-b[i], a[i+1]-b[i+1], a[i+2]-b[i+2], a[i+3]-b[i+3]
		s0 += float32(d0 * d0)
		s1 += float32(d1 * d1)
		s2 += float32(d2 * d2)
		s3 += float32(d3 * d3)
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += float32(d * d)
	}
	return s0 + s1 + s2 + s3
}

func portableDot(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float32(a[i] * b[i])
		s1 += float32(a[i+1] * b[i+1])
		s2 += float32(a[i+2] * b[i+2])
		s3 += float32(a[i+3] * b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float32(a[i] * b[i])
	}
	return s0 + s1 + s2 + s3
}

// BenchmarkFlatScan measures the flat scan at the acceptance scale
// (100k x 128-d), serial, for each metric with a kernel. perrow wraps
// the canonical function in a closure so MetricOf cannot recognize it
// and Flat falls back to row-at-a-time scoring — the dispatch every
// scan paid before the scoring engine, each call on the process's
// kernel. scorer is the block path on the process's kernel (the
// assembly on an amd64 host with AVX). generic scans row at a time
// with the portable tier's loops (none for cosine: its per-row scalar
// form is the perrow row already).
func BenchmarkFlatScan(b *testing.B) {
	defer SetScanParts(1)()
	ds := dataset.Uniform(100_000, 128, 1)
	q := ds.Queries(1, 0.1, 2)[0]
	rows := float64(ds.Count)
	metrics := []struct {
		name     string
		fn       vec.DistanceFunc
		portable vec.DistanceFunc
	}{
		{"l2", vec.SquaredL2, portableL2},
		{"ip", vec.NegInnerProduct, func(a, c []float32) float32 { return -portableDot(a, c) }},
		{"cosine", vec.CosineDistance, nil},
	}
	for _, m := range metrics {
		scalar := m.fn
		variants := []struct {
			name string
			fn   vec.DistanceFunc
		}{
			{"perrow", func(a, c []float32) float32 { return scalar(a, c) }},
			{"scorer", m.fn},
		}
		if m.portable != nil {
			variants = append(variants, struct {
				name string
				fn   vec.DistanceFunc
			}{"generic", m.portable})
		}
		for _, v := range variants {
			f, err := NewFlat(ds.Data, ds.Count, ds.Dim, v.fn)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(m.name+"/"+v.name, func(b *testing.B) {
				b.SetBytes(int64(ds.Count) * int64(ds.Dim) * 4)
				for i := 0; i < b.N; i++ {
					if _, err := f.Search(q, 10, Params{}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}

// BenchmarkQuantScan is the quantization-fused counterpart of
// BenchmarkFlatScan at the same acceptance scale (100k x 128-d,
// serial): the float32 block scan vs the sq8 LUT scan and the pq/opq
// 4-bit fast-scan ADC kernels, each with exact re-rank of the top 100
// candidates. Alongside rows/s every variant reports its measured
// recall@10 against the float32 ground truth and its scoring-payload
// compression ratio, so the run records the recall-vs-speed frontier,
// not just throughput. The sq8 variant fails below recall@10 0.95: a
// codec or re-rank regression fails here, at any -benchtime (recall is
// measured outside the timed loop). PQ/OPQ codebooks train on a 20k
// subsample to keep the setup cost bounded; encoding covers all rows.
func BenchmarkQuantScan(b *testing.B) {
	defer SetScanParts(1)()
	const (
		k       = 10
		rerankK = 100
		train   = 20_000
	)
	ds := dataset.Uniform(100_000, 128, 1)
	qs := ds.Queries(8, 0.1, 3)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, k)
	rows := float64(ds.Count)

	sc, err := vec.NewScorer(vec.L2, ds.Data, ds.Count, ds.Dim)
	if err != nil {
		b.Fatal(err)
	}
	newQuantFlat := func(qsc vec.QuantScorer, spec QuantSpec) *Flat {
		return &Flat{dim: ds.Dim, n: ds.Count, sc: sc, qsc: qsc, spec: spec}
	}
	spec := QuantSpec{RerankK: rerankK}
	pqCfg := quant.PQConfig{M: 8, Ks: 16, Seed: 1, MaxIter: 10}
	sub := ds.Data[:train*ds.Dim]

	variants := make([]struct {
		name string
		f    *Flat
	}, 0, 4)
	float32Flat, err := NewFlatQuant(ds.Data, ds.Count, ds.Dim, vec.L2, QuantSpec{})
	if err != nil {
		b.Fatal(err)
	}
	variants = append(variants, struct {
		name string
		f    *Flat
	}{"float32", float32Flat})

	sq8Spec := spec
	sq8Spec.Kind = QuantSQ8
	sq8Kernel, err := BuildQuantKernel(sq8Spec, vec.L2, ds.Data, ds.Count, ds.Dim)
	if err != nil {
		b.Fatal(err)
	}
	variants = append(variants, struct {
		name string
		f    *Flat
	}{"sq8", newQuantFlat(sq8Kernel, sq8Spec)})

	pq, err := quant.TrainPQ(sub, train, ds.Dim, pqCfg)
	if err != nil {
		b.Fatal(err)
	}
	pqKernel, err := quant.NewPQScorer(pq, ds.Data, ds.Count)
	if err != nil {
		b.Fatal(err)
	}
	pqSpec := spec
	pqSpec.Kind = QuantPQ
	variants = append(variants, struct {
		name string
		f    *Flat
	}{"pq", newQuantFlat(pqKernel, pqSpec)})

	o, err := quant.TrainOPQ(sub, train, ds.Dim, quant.OPQConfig{PQConfig: pqCfg, Iters: 3})
	if err != nil {
		b.Fatal(err)
	}
	opqKernel, err := quant.NewOPQScorer(o, ds.Data, ds.Count)
	if err != nil {
		b.Fatal(err)
	}
	opqSpec := spec
	opqSpec.Kind = QuantOPQ
	variants = append(variants, struct {
		name string
		f    *Flat
	}{"opq", newQuantFlat(opqKernel, opqSpec)})

	for _, v := range variants {
		// Recall and compression are properties of the variant, not the
		// iteration count: measure once outside the timed loop.
		var recall float64
		for i, q := range qs {
			res, err := v.f.Search(q, k, Params{})
			if err != nil {
				b.Fatal(err)
			}
			recall += dataset.Recall(res, truth[i])
		}
		recall /= float64(len(qs))
		ratio := 1.0
		if v.f.qsc != nil {
			ratio = float64(ds.Dim*4) / float64(v.f.qsc.BytesPerRow())
		}
		b.Run(v.name, func(b *testing.B) {
			if v.name == "sq8" && recall < 0.95 {
				b.Fatalf("sq8 quantized scan recall@10 = %.3f, want >= 0.95", recall)
			}
			bytesPerRow := ds.Dim * 4
			if v.f.qsc != nil {
				bytesPerRow = v.f.qsc.BytesPerRow()
			}
			b.SetBytes(int64(ds.Count) * int64(bytesPerRow))
			q := qs[0]
			for i := 0; i < b.N; i++ {
				if _, err := v.f.Search(q, k, Params{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(recall, "recall@10")
			b.ReportMetric(ratio, "x_compression")
		})
	}
}
