package index_test

import (
	"math"
	"runtime"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/index/ivf"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// blockSizes is the sweep the acceptance criteria name: a degenerate
// one-row block, a prime that misaligns every boundary, the typical
// cache-sized block, and one larger than most partitions.
var blockSizes = []int{1, 7, 64, 1024}

// setScanBlock sweeps the one block size every scan shares.
func setScanBlock(t *testing.T, bs int) {
	t.Helper()
	t.Cleanup(index.SetScanBlock(bs))
}

// setScanParts sweeps the part count of every fan-out.
func setScanParts(t *testing.T, w int) {
	t.Helper()
	t.Cleanup(index.SetScanParts(w))
}

// TestFlatBlockSweep: for metrics whose kernels reproduce the scalar
// accumulation order (L2, inner product, Hamming), the block-scored
// flat scan must return byte-identical results to a per-row scalar
// baseline at every block size and part count, with and without a
// predicate. The baseline wraps the canonical function in a closure so
// MetricOf cannot recognize it and Flat falls back to row-at-a-time
// scoring.
func TestFlatBlockSweep(t *testing.T) {
	ds := dataset.Clustered(3000, 16, 5, 0.05, 3)
	metrics := []struct {
		name string
		fn   vec.DistanceFunc
	}{
		{"l2", vec.SquaredL2},
		{"ip", vec.NegInnerProduct},
		{"hamming", vec.HammingDistance},
	}
	qs := ds.Queries(4, 0.05, 7)
	pred := func(id int64) bool { return id%3 != 0 }
	for _, m := range metrics {
		m := m
		t.Run(m.name, func(t *testing.T) {
			scalar := m.fn
			baseline, err := index.NewFlat(ds.Data, ds.Count, ds.Dim,
				func(a, b []float32) float32 { return scalar(a, b) })
			if err != nil {
				t.Fatal(err)
			}
			fast, err := index.NewFlat(ds.Data, ds.Count, ds.Dim, m.fn)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range qs {
				setScanParts(t, 1)
				want, err := baseline.Search(q, 10, index.Params{})
				if err != nil {
					t.Fatal(err)
				}
				wantPred, err := baseline.Search(q, 10, index.Params{Filter: pred})
				if err != nil {
					t.Fatal(err)
				}
				for _, bs := range blockSizes {
					setScanBlock(t, bs)
					for _, w := range []int{1, 4} {
						setScanParts(t, w)
						got, err := fast.Search(q, 10, index.Params{})
						if err != nil {
							t.Fatal(err)
						}
						sameHits(t, m.name, want, got)
						got, err = fast.Search(q, 10, index.Params{Filter: pred})
						if err != nil {
							t.Fatal(err)
						}
						sameHits(t, m.name+"/pred", wantPred, got)
					}
				}
			}
		})
	}
}

// TestFlatCosineBlockSweep: cosine scores through cached inverse norms,
// a reformulation of the scalar 1 - dot/(na*nb), so the contract is
// 1e-5 relative agreement with the scalar baseline — but across block
// sizes and part counts the scorer path must agree with itself
// byte-for-byte.
func TestFlatCosineBlockSweep(t *testing.T) {
	ds := dataset.Clustered(3000, 16, 5, 0.3, 5)
	baseline, err := index.NewFlat(ds.Data, ds.Count, ds.Dim,
		func(a, b []float32) float32 { return vec.CosineDistance(a, b) })
	if err != nil {
		t.Fatal(err)
	}
	fast, err := index.NewFlat(ds.Data, ds.Count, ds.Dim, vec.CosineDistance)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.Queries(4, 0.05, 9) {
		// All rows returned, so near-tie rank swaps cannot change the
		// result set; distances are compared by id.
		setScanParts(t, 1)
		want, err := baseline.Search(q, ds.Count, index.Params{})
		if err != nil {
			t.Fatal(err)
		}
		byID := make(map[int64]float32, len(want))
		for _, r := range want {
			byID[r.ID] = r.Dist
		}
		var ref []topk.Result
		for _, bs := range blockSizes {
			setScanBlock(t, bs)
			for _, w := range []int{1, 4} {
				setScanParts(t, w)
				got, err := fast.Search(q, ds.Count, index.Params{})
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = got
					if len(got) != len(want) {
						t.Fatalf("cosine: %d results, scalar %d", len(got), len(want))
					}
					for _, r := range got {
						wd := float64(byID[r.ID])
						gd := float64(r.Dist)
						tol := 1e-5 * math.Max(1, math.Max(math.Abs(wd), math.Abs(gd)))
						if math.Abs(wd-gd) > tol {
							t.Fatalf("cosine id %d: scorer %v scalar %v", r.ID, gd, wd)
						}
					}
					continue
				}
				sameHits(t, "cosine/self", ref, got)
			}
		}
	}
}

// TestFlatSearchRangeParallel: the partitioned range scan — a scan
// windowed at a radius — must return the rows of the exact ranking
// within the radius, in (dist, id) order, at every part count and
// block size, with and without a predicate.
func TestFlatSearchRangeParallel(t *testing.T) {
	ds := dataset.Clustered(5000, 12, 4, 0.2, 11)
	f, err := index.NewFlat(ds.Data, ds.Count, ds.Dim, nil)
	if err != nil {
		t.Fatal(err)
	}
	pred := func(id int64) bool { return id%2 == 0 }
	for _, q := range ds.Queries(4, 0.1, 13) {
		// Pick a radius that admits a few percent of rows.
		setScanParts(t, 1)
		probe, err := f.Search(q, 50, index.Params{})
		if err != nil {
			t.Fatal(err)
		}
		radius := probe[len(probe)-1].Dist
		// The reference: the full exact ranking cut at the radius.
		all, err := f.Search(q, ds.Count, index.Params{})
		if err != nil {
			t.Fatal(err)
		}
		var serial, serialPred []topk.Result
		for _, r := range all {
			if r.Dist <= radius {
				serial = append(serial, r)
				if pred(r.ID) {
					serialPred = append(serialPred, r)
				}
			}
		}
		if len(serial) == 0 {
			t.Fatal("radius admitted no rows; bad test setup")
		}
		w := topk.Window{Radius: radius}
		for _, bs := range blockSizes {
			setScanBlock(t, bs)
			for _, workers := range []int{1, 2, runtime.NumCPU(), runtime.NumCPU() + 3} {
				setScanParts(t, workers)
				got, err := f.SearchWindow(q, ds.Count, index.Params{}, w)
				if err != nil {
					t.Fatal(err)
				}
				sameHits(t, "range", serial, got)
				got, err = f.SearchWindow(q, ds.Count, index.Params{Filter: pred}, w)
				if err != nil {
					t.Fatal(err)
				}
				sameHits(t, "range/pred", serialPred, got)
			}
		}
	}
}

// TestIVFFlatBlockSweep: the Flat-variant list scan gathers admitted
// ids into blocks; results must be byte-identical at every gather-block
// size and part count, with and without a predicate. Probing all
// lists makes the scan exhaustive, so the reference is the brute-force
// flat index — same L2 kernels, so the match is exact.
func TestIVFFlatBlockSweep(t *testing.T) {
	ds := dataset.Clustered(3000, 16, 8, 0.2, 3)
	iv, err := ivf.Build(ds.Data, ds.Count, ds.Dim, ivf.Config{NList: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := index.NewFlat(ds.Data, ds.Count, ds.Dim, nil)
	if err != nil {
		t.Fatal(err)
	}
	pred := func(id int64) bool { return id%3 != 0 }
	for _, q := range ds.Queries(4, 0.05, 7) {
		setScanParts(t, 1)
		want, err := exact.Search(q, 10, index.Params{})
		if err != nil {
			t.Fatal(err)
		}
		wantPred, err := exact.Search(q, 10, index.Params{Filter: pred})
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range blockSizes {
			setScanBlock(t, bs)
			for _, w := range []int{1, 4} {
				setScanParts(t, w)
				p := index.Params{NProbe: iv.NList()}
				got, err := iv.Search(q, 10, p)
				if err != nil {
					t.Fatal(err)
				}
				sameHits(t, "ivf-flat", want, got)
				p.Filter = pred
				got, err = iv.Search(q, 10, p)
				if err != nil {
					t.Fatal(err)
				}
				sameHits(t, "ivf-flat/pred", wantPred, got)
			}
		}
	}
}
