package index_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vdbms/internal/bitset"
	"vdbms/internal/index"
	"vdbms/internal/index/ivf"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// tieHeavy returns n rows of d small integers, every fifth row a copy of
// the one before it: squared distances are exact integers, so many rows
// tie with the k-th one, and a duplicated row ties with its copy under
// every metric.
func tieHeavy(rng *rand.Rand, n, d int) []float32 {
	data := make([]float32, n*d)
	for i := 0; i < n; i++ {
		row := data[i*d : (i+1)*d]
		if i%5 == 4 {
			copy(row, data[(i-1)*d:i*d])
			continue
		}
		for j := range row {
			row[j] = float32(rng.Intn(4) - 1)
		}
	}
	return data
}

// spd returns A·Aᵀ + I over small integer entries: symmetric positive
// definite, so the Mahalanobis scorer takes its Cholesky path.
func spd(rng *rand.Rand, d int) [][]float32 {
	a := make([]float32, d*d)
	for i := range a {
		a[i] = float32(rng.Intn(3) - 1)
	}
	m := make([][]float32, d)
	for i := range m {
		m[i] = make([]float32, d)
		for j := range m[i] {
			var s float32
			for k := 0; k < d; k++ {
				s += a[i*d+k] * a[j*d+k]
			}
			if i == j {
				s++
			}
			m[i][j] = s
		}
	}
	return m
}

// referenceTopK is the top k of the admitted rows among ids, each scored
// alone with ScoreAt and fed to a collector: what a scan without a
// bound returns.
func referenceTopK(b vec.Bound, ids []int, admit func(int64) bool, k int) []topk.Result {
	c := topk.NewCollector(k)
	for _, id := range ids {
		if admit(int64(id)) {
			c.Push(int64(id), b.ScoreAt(id))
		}
	}
	return c.Results()
}

func sameHits(t *testing.T, label string, want, got []topk.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d hits, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID || math.Float32bits(want[i].Dist) != math.Float32bits(got[i].Dist) {
			t.Fatalf("%s: hit %d = %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}

// TestBoundedScanMatchesReference pins the exactness of the bounded
// scans: Flat.Search cuts rows at its collectors' k-th distance,
// Flat.SearchWindow at the radius and ivfflat's list scan at its
// collectors' k-th distance, and each must return the ids and distance
// bits of a collector fed ScoreAt — at k 1, 10, 100 and n, at
// 1, 2 and 8 parts (SetScanParts), with and without an allowlist and a deletion
// mask, on tie-heavy data with duplicated rows, under L2 and the
// Cholesky-factored Mahalanobis distance (ivfflat: L2, its metrics).
func TestBoundedScanMatchesReference(t *testing.T) {
	t.Cleanup(index.SetScanParts(0))
	const n, d = 2400, 70
	rng := rand.New(rand.NewSource(43))
	data := tieHeavy(rng, n, d)
	mh, err := vec.NewMahalanobis(spd(rng, d))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := vec.NewScorer(vec.L2, data, n, d)
	if err != nil {
		t.Fatal(err)
	}
	mah, err := vec.NewMahalanobisScorer(mh, data, n, d)
	if err != nil {
		t.Fatal(err)
	}
	allow := bitset.New(n)
	deleted := bitset.New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(10) < 6 {
			allow.Set(i)
		}
		if rng.Intn(10) == 0 {
			deleted.Set(i)
		}
	}
	live := func(id int64) bool { return !deleted.Test(int(id)) }
	preds := []struct {
		name   string
		allow  *bitset.Bitset
		filter func(int64) bool
	}{
		{"all", nil, nil},
		{"allowlist", allow, nil},
		{"deletions", nil, live},
		{"allowlist+deletions", allow, live},
	}
	// Queries: a stored row (its copy ties with it at 0), that row moved
	// off the lattice, and a fresh lattice point.
	q0 := data[7*d : 8*d]
	q1 := append([]float32(nil), q0...)
	for j := 0; j < d; j += 3 {
		q1[j] += 0.5
	}
	q2 := tieHeavy(rng, 1, d)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	iv, err := ivf.Build(data, n, d, ivf.Config{NList: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// cut counts the rows each path cut short.
	cut := map[string]int64{}
	for _, sc := range []*vec.Scorer{l2, mah} {
		f, err := index.NewFlatScorer(sc)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range [][]float32{q0, q1, q2} {
			b := sc.Bind(q)
			for _, pr := range preds {
				for _, par := range []int{1, 2, 8} {
					index.SetScanParts(par)
					p := index.Params{Allow: pr.allow, Filter: pr.filter}
					admit := p.Admits
					for _, k := range []int{1, 10, 100, n} {
						label := fmt.Sprintf("%v q%d %s par=%d k=%d", sc.Metric(), qi, pr.name, par, k)
						var st index.SearchStats
						p.Stats = &st
						got, err := f.Search(q, k, p)
						if err != nil {
							t.Fatal(err)
						}
						want := referenceTopK(b, all, admit, k)
						sameHits(t, "flat "+label, want, got)
						if st.Abandoned > st.DistanceComps {
							t.Fatalf("flat %s: %d rows cut of %d scored", label, st.Abandoned, st.DistanceComps)
						}
						cut["flat "+sc.Metric().String()] += st.Abandoned
						if sc != l2 {
							continue
						}
						// ivfflat at 4 of 16 lists and at all of them. Its
						// candidates are what a search too wide to fill
						// its collector returns: that scan is never cut.
						for _, nprobe := range []int{4, 16} {
							p.NProbe = nprobe
							p.Stats = nil
							wide, err := iv.Search(q, n, p)
							if err != nil {
								t.Fatal(err)
							}
							cands := make([]int, len(wide))
							for i, r := range wide {
								cands[i] = int(r.ID)
							}
							st = index.SearchStats{}
							p.Stats = &st
							got, err := iv.Search(q, k, p)
							if err != nil {
								t.Fatal(err)
							}
							cut["ivfflat"] += st.Abandoned
							sameHits(t, fmt.Sprintf("ivfflat nprobe=%d %s", nprobe, label), referenceTopK(b, cands, admit, k), got)
						}
					}
					// Windowed scans at radii with ties on the boundary —
					// the smallest positive radius (rows at distance 0), the
					// 10th and the 100th smallest distance — alone and past
					// a cursor on the 10th hit, whose ties span it.
					order := referenceTopK(b, all, admit, n)
					for _, radius := range []float32{math.SmallestNonzeroFloat32, order[9].Dist, order[99].Dist} {
						for _, after := range []*topk.Result{nil, &order[9]} {
							var st index.SearchStats
							p.Stats = &st
							w := topk.Window{After: after, Radius: radius}
							got, err := f.SearchWindow(q, n, p, w)
							if err != nil {
								t.Fatal(err)
							}
							cut["range "+sc.Metric().String()] += st.Abandoned
							var want []topk.Result
							for i, r := range order {
								if r.Dist <= radius && (after == nil || i > 9) {
									want = append(want, r)
								}
							}
							sameHits(t, fmt.Sprintf("window %v q%d %s par=%d radius=%v after=%v", sc.Metric(), qi, pr.name, par, radius, after), want, got)
						}
					}
				}
			}
		}
	}
	// Without a cut row the comparisons above would hold of any scan.
	for _, path := range []string{"flat l2", "flat mahalanobis", "ivfflat", "range l2", "range mahalanobis"} {
		if cut[path] == 0 {
			t.Errorf("%s: no row was cut, the bound never applied", path)
		}
	}
}
