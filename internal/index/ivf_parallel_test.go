package index_test

import (
	"runtime"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/index/ivf"
)

// TestIVFParallelDeterminism: an IVF probe split across parts
// (SetScanParts) must return byte-identical results to the one-part
// scan the rule picks, at every part count, for all storage variants
// (the residual ADC variant exercises the per-part ADC table path).
func TestIVFParallelDeterminism(t *testing.T) {
	t.Cleanup(index.SetScanParts(0))
	ds := dataset.Clustered(3000, 16, 8, 0.3, 5)
	variants := []struct {
		name string
		cfg  ivf.Config
	}{
		{"flat", ivf.Config{NList: 24}},
		{"sq", ivf.Config{NList: 24, Variant: ivf.SQ}},
		{"adc", ivf.Config{NList: 24, Variant: ivf.ADC, PQM: 4}},
		{"adc-residual", ivf.Config{NList: 24, Variant: ivf.ADC, PQM: 4, Residual: true}},
	}
	qs := ds.Queries(5, 0.1, 9)
	counts := []int{1, 2, runtime.NumCPU(), runtime.NumCPU() + 3}
	for _, v := range variants {
		iv, err := ivf.Build(ds.Data, ds.Count, ds.Dim, v.cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		for _, q := range qs {
			index.SetScanParts(0)
			serial, err := iv.Search(q, 10, index.Params{NProbe: 8})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range counts {
				index.SetScanParts(w)
				got, err := iv.Search(q, 10, index.Params{NProbe: 8})
				if err != nil {
					t.Fatal(err)
				}
				sameHits(t, v.name, serial, got)
			}
		}
	}
}

// TestIVFParallelStats: work counters must not depend on the part
// count, and the rule scans an IVF probe in one part.
func TestIVFParallelStats(t *testing.T) {
	t.Cleanup(index.SetScanParts(0))
	ds := dataset.Clustered(2000, 8, 6, 0.3, 6)
	iv, err := ivf.Build(ds.Data, ds.Count, ds.Dim, ivf.Config{NList: 16})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Row(0)
	var serial, par index.SearchStats
	if _, err := iv.Search(q, 5, index.Params{NProbe: 6, Stats: &serial}); err != nil {
		t.Fatal(err)
	}
	index.SetScanParts(3)
	if _, err := iv.Search(q, 5, index.Params{NProbe: 6, Stats: &par}); err != nil {
		t.Fatal(err)
	}
	if par.DistanceComps != serial.DistanceComps || par.BucketsProbed != serial.BucketsProbed {
		t.Fatalf("parallel stats %+v != serial %+v", par, serial)
	}
	if serial.Partitions != 1 || par.Partitions != 3 {
		t.Fatalf("partitions serial=%d par=%d, want 1 and 3", serial.Partitions, par.Partitions)
	}
}
