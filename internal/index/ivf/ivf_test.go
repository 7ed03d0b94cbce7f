package ivf

import (
	"errors"
	"fmt"
	"testing"

	"vdbms/internal/bitset"
	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

func buildClustered(t *testing.T, v Variant, residual bool) (*IVF, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Clustered(2000, 16, 16, 0.3, 1)
	iv, err := Build(ds.Data, ds.Count, ds.Dim, Config{
		NList: 16, Variant: v, PQM: 4, PQKs: 64, Residual: residual, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return iv, ds
}

func meanRecall(t *testing.T, iv *IVF, ds *dataset.Dataset, nprobe, k, nq int) float64 {
	t.Helper()
	qs := ds.Queries(nq, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, k)
	var s float64
	for i, q := range qs {
		got, err := iv.Search(q, k, index.Params{NProbe: nprobe})
		if err != nil {
			t.Fatal(err)
		}
		s += dataset.Recall(got, truth[i])
	}
	return s / float64(nq)
}

func TestIVFFlatNprobeSweep(t *testing.T) {
	iv, ds := buildClustered(t, Flat, false)
	r1 := meanRecall(t, iv, ds, 1, 10, 20)
	rAll := meanRecall(t, iv, ds, 16, 10, 20)
	if rAll != 1 {
		t.Fatalf("nprobe=nlist must be exact, got %v", rAll)
	}
	if r1 > rAll {
		t.Fatalf("recall must not decrease with nprobe: %v vs %v", r1, rAll)
	}
	if r1 < 0.5 {
		t.Fatalf("clustered data nprobe=1 recall too low: %v", r1)
	}
}

func TestIVFScannedFractionGrows(t *testing.T) {
	iv, ds := buildClustered(t, Flat, false)
	q := ds.Queries(1, 0.05, 7)[0]
	f1 := iv.ScannedFraction(q, 1)
	f8 := iv.ScannedFraction(q, 8)
	fAll := iv.ScannedFraction(q, 16)
	if !(f1 <= f8 && f8 <= fAll) {
		t.Fatalf("scanned fraction must grow: %v %v %v", f1, f8, fAll)
	}
	if fAll < 0.999 {
		t.Fatalf("probing all lists must scan everything: %v", fAll)
	}
	if iv.ScannedFraction(q, 0) != f1 {
		t.Fatal("nprobe=0 should default to 1")
	}
}

func TestIVFSQRecallCloseToFlat(t *testing.T) {
	ivf, ds := buildClustered(t, Flat, false)
	ivsq, _ := buildClustered(t, SQ, false)
	rf := meanRecall(t, ivf, ds, 4, 10, 15)
	rq := meanRecall(t, ivsq, ds, 4, 10, 15)
	if rq < rf-0.15 {
		t.Fatalf("SQ recall %v too far below flat %v", rq, rf)
	}
	if ivsq.Name() != "ivfsq" {
		t.Fatal("name wrong")
	}
}

func TestIVFADCVariants(t *testing.T) {
	plain, ds := buildClustered(t, ADC, false)
	resid, _ := buildClustered(t, ADC, true)
	rp := meanRecall(t, plain, ds, 4, 10, 15)
	rr := meanRecall(t, resid, ds, 4, 10, 15)
	if rp < 0.3 {
		t.Fatalf("IVFADC recall too low: %v", rp)
	}
	// Residual encoding is the canonical IVFADC; it should be at least
	// comparable on clustered data.
	if rr < rp-0.2 {
		t.Fatalf("residual ADC recall %v far below plain %v", rr, rp)
	}
	if plain.Name() != "ivfadc" {
		t.Fatal("name wrong")
	}
}

func TestIVFPredicates(t *testing.T) {
	iv, ds := buildClustered(t, Flat, false)
	allow := bitset.New(ds.Count)
	allow.Set(5)
	allow.Set(6)
	got, err := iv.Search(ds.Row(5), 10, index.Params{NProbe: 16, Allow: allow})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("allowlist results = %d", len(got))
	}
	got, _ = iv.Search(ds.Row(0), 10, index.Params{NProbe: 16, Filter: func(id int64) bool { return id < 100 }})
	for _, r := range got {
		if r.ID >= 100 {
			t.Fatalf("filter violated: %d", r.ID)
		}
	}
}

func TestIVFValidation(t *testing.T) {
	if _, err := Build([]float32{1}, 2, 2, Config{}); err == nil {
		t.Fatal("want shape error")
	}
	ds := dataset.Uniform(50, 4, 3)
	iv, err := Build(ds.Data, 50, 4, Config{NList: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iv.Search(ds.Row(0), 0, index.Params{}); err != index.ErrBadK {
		t.Fatal("want ErrBadK")
	}
	if _, err := iv.Search([]float32{1}, 1, index.Params{}); err == nil {
		t.Fatal("want dim error")
	}
	if _, err := Build(ds.Data, 50, 4, Config{Variant: Variant(99)}); err == nil {
		t.Fatal("want unknown-variant error")
	}
}

func TestIVFStatsAndMembers(t *testing.T) {
	iv, ds := buildClustered(t, Flat, false)
	var st index.SearchStats
	iv.Search(ds.Row(0), 5, index.Params{NProbe: 2, Stats: &st})
	if st.DistanceComps == 0 || st.BucketsProbed != 2 {
		t.Fatalf("stats not counted: %+v", st)
	}
	total := 0
	for l := 0; l < iv.NList(); l++ {
		total += len(iv.ListMembers(l))
	}
	if total != ds.Count {
		t.Fatalf("bucket membership covers %d of %d", total, ds.Count)
	}
}

func TestIVFDefaultNList(t *testing.T) {
	ds := dataset.Uniform(100, 4, 5)
	iv, err := Build(ds.Data, 100, 4, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if iv.NList() < 4 {
		t.Fatalf("default nlist = %d", iv.NList())
	}
}

// TestIVFRegistry builds each variant with the keys it declares, and
// holds each to refusing the keys only a later variant reads: ivfflat
// takes no rerank_k, ivfsq no product quantizer shape.
func TestIVFRegistry(t *testing.T) {
	ds := dataset.Uniform(64, 8, 7)
	for name, opts := range map[string]map[string]int{
		"ivfflat": {"nlist": 4},
		"ivfsq":   {"nlist": 4, "rerank_k": 8},
		"ivfadc":  {"nlist": 4, "rerank_k": 8, "m": 2, "ks": 16, "residual": 1},
	} {
		idx, err := index.Build(name, ds.Data, 64, 8, vec.L2, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if idx.Name() != name {
			t.Fatalf("name = %s, want %s", idx.Name(), name)
		}
		if _, err := idx.Search(ds.Row(0), 3, index.Params{NProbe: 4}); err != nil {
			t.Fatalf("%s search: %v", name, err)
		}
	}
	for name, key := range map[string]string{"ivfflat": "rerank_k", "ivfsq": "m", "ivfadc": "zz"} {
		if _, err := index.Build(name, ds.Data, 64, 8, vec.L2, map[string]int{key: 1}); !errors.Is(err, index.ErrOption) {
			t.Fatalf("%s with %q: %v, want index.ErrOption", name, key, err)
		}
	}
}

// TestSearchBatchMatchesSingles holds the batched scan to the single
// searches under every metric the Flat variant serves: the same hits,
// distance bits included, and the sum of their work in one Stats. The
// batch used to rank by squared L2 whatever the index's metric.
func TestSearchBatchMatchesSingles(t *testing.T) {
	ds := dataset.Clustered(2000, 16, 16, 0.3, 1)
	qs := ds.Queries(12, 0.05, 21)
	for _, m := range []vec.Metric{vec.L2, vec.Cosine, vec.InnerProduct} {
		iv, err := Build(ds.Data, ds.Count, ds.Dim, Config{NList: 16, Seed: 3, Metric: m})
		if err != nil {
			t.Fatal(err)
		}
		var got, want index.SearchStats
		batch, err := iv.SearchBatch(qs, 10, index.Params{NProbe: 4, Stats: &got})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			single, err := iv.Search(q, 10, index.Params{NProbe: 4, Stats: &want})
			if err != nil {
				t.Fatal(err)
			}
			if len(single) != len(batch[i]) {
				t.Fatalf("%s query %d: %d vs %d results", m, i, len(batch[i]), len(single))
			}
			for j := range single {
				if single[j] != batch[i][j] {
					t.Fatalf("%s query %d result %d differs: %v vs %v", m, i, j, batch[i][j], single[j])
				}
			}
		}
		if got.DistanceComps != want.DistanceComps || got.BucketsProbed != want.BucketsProbed {
			t.Fatalf("%s: batch stats %+v, singles sum to %+v", m, got, want)
		}
		if iv.BucketOverlap(qs, 4) < 1 {
			t.Fatal("overlap must be >= 1")
		}
	}
}

func TestSearchBatchValidation(t *testing.T) {
	iv, ds := buildClustered(t, Flat, false)
	if _, err := iv.SearchBatch(ds.Queries(2, 0.05, 23), 0, index.Params{}); err != index.ErrBadK {
		t.Fatal("want ErrBadK")
	}
	if _, err := iv.SearchBatch([][]float32{{1}}, 5, index.Params{}); err == nil {
		t.Fatal("want dim error")
	}
	adc, _ := buildClustered(t, ADC, false)
	if _, err := adc.SearchBatch(ds.Queries(1, 0.05, 25), 5, index.Params{}); err == nil {
		t.Fatal("want variant error")
	}
}

func TestSearchBatchRespectsPredicates(t *testing.T) {
	iv, ds := buildClustered(t, Flat, false)
	qs := ds.Queries(4, 0.05, 27)
	batch, err := iv.SearchBatch(qs, 10, index.Params{NProbe: 16, Filter: func(id int64) bool { return id%2 == 0 }})
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range batch {
		for _, r := range rs {
			if r.ID%2 != 0 {
				t.Fatalf("filter violated: %d", r.ID)
			}
		}
	}
}

// TestExtendKeepsOlderVersions: Extend files each new row into the list
// of its nearest centroid, so a self query probing one list finds it,
// and the extended index probing every list answers as a flat index
// over all its rows. An older version returns the same hits after its
// successor is extended in turn, although the versions share one
// column, the lists' backing arrays and the scorer's per-row state
// (cosine norms): successors write only past what it reads. The code
// variants refuse to extend.
func TestExtendKeepsOlderVersions(t *testing.T) {
	const n0, n1, n2, d, nlist = 1200, 1600, 2000, 16, 16
	ds := dataset.Clustered(n2, d, 16, 0.3, 5)
	qs := ds.Queries(8, 0.05, 6)
	for _, m := range []vec.Metric{vec.L2, vec.Cosine} {
		hits := func(ix index.Index, nprobe int) string {
			t.Helper()
			var all [][]topk.Result
			for _, q := range qs {
				res, err := ix.Search(q, 10, index.Params{NProbe: nprobe})
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, res)
			}
			return fmt.Sprint(all)
		}
		v0, err := Build(ds.Data[:n0*d], n0, d, Config{NList: nlist, Seed: 3, Metric: m})
		if err != nil {
			t.Fatal(err)
		}
		var versions []index.Index
		var before []string
		for _, n := range []int{n0, n1, n2} {
			ix := index.Index(v0)
			if len(versions) > 0 {
				ext, ok := versions[len(versions)-1].(index.Extendable).Extend(ds.Data[:n*d], n)
				if !ok || ext.Size() != n {
					t.Fatalf("%v: extend to %d rows: ok %v", m, n, ok)
				}
				ix = ext
			}
			for i, old := range versions {
				if got := hits(old, 1) + hits(old, nlist); got != before[i] {
					t.Fatalf("%v: version over %d rows changed its hits once extended to %d", m, old.Size(), n)
				}
			}
			versions = append(versions, ix)
			before = append(before, hits(ix, 1)+hits(ix, nlist))
			flat, err := index.Build("flat", ds.Data[:n*d], n, d, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := hits(ix, nlist), hits(flat, 1); got != want {
				t.Fatalf("%v over %d rows, every list probed:\n got %s\nwant %s", m, n, got, want)
			}
		}
		last := versions[len(versions)-1]
		for id := n0; id < n2; id++ {
			res, err := last.Search(ds.Row(id), 1, index.Params{NProbe: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 1 || res[0].ID != int64(id) {
				t.Fatalf("%v: filed row %d not found in its own list: %v", m, id, res)
			}
		}
	}
	for _, v := range []Variant{SQ, ADC} {
		iv, _ := buildClustered(t, v, false)
		if _, ok := iv.Extend(iv.sc.Data(), iv.Size()); ok {
			t.Fatalf("%s extended", iv.Name())
		}
	}
}
