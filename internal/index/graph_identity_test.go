package index_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"

	"vdbms/internal/bitset"
	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/vec"
)

// graphCases are the graph families as the identity tests build them:
// each of the six unfiltered, hnsw under an allowlist, and the two
// quantized traversals with their exact re-rank.
var graphCases = []struct {
	label, name string
	opts        map[string]int
	filtered    bool
	want        uint64
}{
	{"hnsw", "hnsw", nil, false, 0xc6879f8a081f1b08},
	{"nsw", "nsw", nil, false, 0x6d6c6d997d5d7109},
	{"nsg", "nsg", nil, false, 0x6fecd44e21338f62},
	{"vamana", "vamana", nil, false, 0x5b29cee4ce230fcc},
	{"fanng", "fanng", nil, false, 0xa3679d5af9e64b2d},
	{"knng", "knng", nil, false, 0x9a87bd09d64b1d95},
	{"hnsw/allow", "hnsw", nil, true, 0x47f8b02ab2fccc0f},
	{"hnsw/sq8", "hnsw", map[string]int{"quant": int(index.QuantSQ8)}, false, 0xe2ab8945fcfbd4cd},
	{"vamana/sq8", "vamana", map[string]int{"quant": int(index.QuantSQ8)}, false, 0xff456e946a7ccf85},
}

// graphHits searches every query at the default beam and at ef = k,
// where the families' graphs part ways, and folds the ids and distance
// bits of every hit into one value.
func graphHits(t *testing.T, idx index.Index, qs [][]float32, p index.Params) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [12]byte
	for _, ef := range []int{0, 10} {
		p.Ef = ef
		for _, q := range qs {
			got, err := idx.Search(q, 10, p)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint32(buf[:4], uint32(len(got)))
			h.Write(buf[:4])
			for _, r := range got {
				binary.LittleEndian.PutUint64(buf[:8], uint64(r.ID))
				binary.LittleEndian.PutUint32(buf[8:], math.Float32bits(r.Dist))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// graphFixture is the data, queries and allowlist of the identity tests.
func graphFixture() (*dataset.Dataset, [][]float32, *bitset.Bitset) {
	ds := dataset.Clustered(2000, 32, 8, 1.0, 21)
	allow := bitset.New(ds.Count)
	for i := 0; i < ds.Count; i += 3 {
		allow.Set(i)
	}
	return ds, ds.Queries(40, 0.5, 22), allow
}

// TestGraphHitIdentity pins the hits of every graph family — ids and
// distance bits — to the hashes each family's own
// serving code produced before the six shared one serving index. Each
// family is built at GOMAXPROCS 1, 2 and 8: a build that uses the cores
// it finds must build the same graph on any number of them.
func TestGraphHitIdentity(t *testing.T) {
	ds, qs, allow := graphFixture()
	for _, procs := range []int{1, 2, 8} {
		for _, tc := range graphCases {
			old := runtime.GOMAXPROCS(procs)
			idx, err := index.Build(tc.name, ds.Data, ds.Count, ds.Dim, vec.L2, tc.opts)
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatal(err)
			}
			p := index.Params{}
			if tc.filtered {
				p.Allow = allow
			}
			if got := graphHits(t, idx, qs, p); got != tc.want {
				t.Errorf("%s at GOMAXPROCS %d: hits hash %#016x, want %#016x", tc.label, procs, got, tc.want)
			}
		}
	}
}

// TestGraphRemapIdentity: every registered family, and the graph cases
// above, rebinds to a copy of its column — the move the memory tier
// makes between heap and mmap — and answers every query with the same
// hits, bit for bit, unfiltered and under the allowlist. A graph family
// also reports a nonzero resident structure for the budget to account.
func TestGraphRemapIdentity(t *testing.T) {
	ds, qs, allow := graphFixture()
	type remapCase struct {
		label, name string
		opts        map[string]int
		graph       bool
	}
	var cases []remapCase
	for _, name := range index.Names() {
		cases = append(cases, remapCase{name, name, nil, false})
	}
	for _, tc := range graphCases {
		cases = append(cases, remapCase{tc.label, tc.name, tc.opts, true})
	}
	for _, tc := range cases {
		idx, err := index.Build(tc.name, ds.Data, ds.Count, ds.Dim, vec.L2, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		rm, ok := idx.(index.Remappable)
		if !ok {
			t.Errorf("%s: not Remappable", tc.label)
			continue
		}
		moved, ok := rm.Remap(slices.Clone(ds.Data))
		if !ok {
			t.Errorf("%s: Remap refused a column of the same rows", tc.label)
			continue
		}
		if _, ok := rm.Remap(ds.Data[:len(ds.Data)-1]); ok {
			t.Errorf("%s: Remap took a column one value short", tc.label)
		}
		for _, p := range []index.Params{{}, {Allow: allow}} {
			for i, q := range qs {
				want, err := idx.Search(q, 10, p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := moved.Search(q, 10, p)
				if err != nil {
					t.Fatal(err)
				}
				sameHits(t, fmt.Sprintf("%s query %d after Remap", tc.label, i), want, got)
			}
		}
		if !tc.graph {
			continue
		}
		mf, ok := idx.(index.MemoryFootprint)
		if !ok {
			t.Errorf("%s: no MemoryFootprint", tc.label)
			continue
		}
		if structure, _ := mf.MemoryBytes(); structure <= 0 {
			t.Errorf("%s: structure accounted as %d bytes", tc.label, structure)
		}
	}
}
