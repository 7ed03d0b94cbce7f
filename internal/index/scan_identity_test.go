package index_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"vdbms/internal/bitset"
	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/vec"
)

// scanCases are the scan-shaped families as the identity test builds
// them: flat at full precision and over sq8 and pq codes, and the three
// IVF variants (ADC with and without residual encoding).
var scanCases = []struct {
	label, name string
	opts        map[string]int
	want        uint64
}{
	{"flat", "flat", nil, 0xda046480a3531803},
	{"flat/sq8", "flat", map[string]int{"quant": int(index.QuantSQ8)}, 0xf0898df6a0230dcd},
	{"flat/pq", "flat", map[string]int{"quant": int(index.QuantPQ)}, 0x69b649a3f9f3c481},
	{"ivfflat", "ivfflat", nil, 0x83c9dc257e53716c},
	{"ivfsq", "ivfsq", nil, 0x791f0d73c4b164cd},
	{"ivfadc", "ivfadc", nil, 0xaf15b3f209920a25},
	{"ivfadc/residual", "ivfadc", map[string]int{"residual": 1}, 0xbdde277c3a054231},
}

// scanHits searches every query unfiltered, under an allowlist and
// under a Filter, each at 1 and 3 parts (SetScanParts), and folds the ids and
// distance bits of every hit and the query's work counters into one
// value.
func scanHits(t *testing.T, idx index.Index, qs [][]float32, allow *bitset.Bitset, filter func(int64) bool) uint64 {
	t.Helper()
	t.Cleanup(index.SetScanParts(0))
	h := fnv.New64a()
	var buf [12]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(v))
		h.Write(buf[:8])
	}
	for _, pred := range []string{"none", "allow", "filter"} {
		for _, w := range []int{1, 3} {
			index.SetScanParts(w)
			for qi, q := range qs {
				var st index.SearchStats
				p := index.Params{NProbe: 4, Stats: &st}
				switch pred {
				case "allow":
					p.Allow = allow
				case "filter":
					p.Filter = filter
				}
				got, err := idx.Search(q, 10, p)
				if err != nil {
					t.Fatalf("%s/%d query %d: %v", pred, w, qi, err)
				}
				binary.LittleEndian.PutUint32(buf[:4], uint32(len(got)))
				h.Write(buf[:4])
				for _, r := range got {
					binary.LittleEndian.PutUint64(buf[:8], uint64(r.ID))
					binary.LittleEndian.PutUint32(buf[8:], math.Float32bits(r.Dist))
					h.Write(buf[:])
				}
				put(st.DistanceComps)
				put(st.BucketsProbed)
				put(st.Partitions)
				put(st.Abandoned)
			}
		}
	}
	return h.Sum64()
}

// TestScanHitIdentity pins the hits and per-query work counters of flat
// and the IVF variants — ids, distance bits, DistanceComps,
// BucketsProbed, Partitions and Abandoned — to the hashes their own
// scan loops produced before they shared one candidate scan.
//
// The rows are 64-dimensional, so the L2 kernels can cut a row after its
// first 32 floats and Abandoned counts something: it pins where each
// scan places its block boundaries and the bound it passes per block.
func TestScanHitIdentity(t *testing.T) {
	ds := dataset.Clustered(2000, 64, 8, 1.0, 21)
	qs := ds.Queries(40, 0.5, 22)
	allow := bitset.New(ds.Count)
	for i := 0; i < ds.Count; i += 3 {
		allow.Set(i)
	}
	filter := func(id int64) bool { return id%5 != 1 }
	for _, tc := range scanCases {
		idx, err := index.Build(tc.name, ds.Data, ds.Count, ds.Dim, vec.L2, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := scanHits(t, idx, qs, allow, filter); got != tc.want {
			t.Errorf("%s: hits hash %#016x, want %#016x", tc.label, got, tc.want)
		}
	}
}
