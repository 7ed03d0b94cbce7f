package index

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"vdbms/internal/bitset"
	"vdbms/internal/dataset"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

func TestFlatExactness(t *testing.T) {
	ds := dataset.Clustered(300, 8, 4, 0.5, 1)
	f, err := NewFlat(ds.Data, ds.Count, ds.Dim, nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := ds.Queries(5, 0.1, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	for i, q := range qs {
		got, err := f.Search(q, 10, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if r := dataset.Recall(got, truth[i]); r != 1 {
			t.Fatalf("flat recall = %v, want exact", r)
		}
	}
}

func TestFlatValidation(t *testing.T) {
	ds := dataset.Uniform(10, 4, 3)
	f, _ := NewFlat(ds.Data, 10, 4, nil)
	if _, err := f.Search(ds.Row(0), 0, Params{}); !errors.Is(err, ErrBadK) {
		t.Fatalf("k=0 error = %v", err)
	}
	if _, err := f.Search([]float32{1}, 1, Params{}); !errors.Is(err, ErrDim) {
		t.Fatalf("dim error = %v", err)
	}
	if _, err := NewFlat([]float32{1}, 2, 4, nil); err == nil {
		t.Fatal("want shape error")
	}
}

func TestFlatAllowBitset(t *testing.T) {
	ds := dataset.Uniform(50, 4, 5)
	f, _ := NewFlat(ds.Data, 50, 4, nil)
	allow := bitset.New(50)
	allow.Set(7)
	allow.Set(9)
	got, err := f.Search(ds.Row(0), 10, Params{Allow: allow})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("allowlist of 2 returned %d results", len(got))
	}
	for _, r := range got {
		if r.ID != 7 && r.ID != 9 {
			t.Fatalf("blocked id %d returned", r.ID)
		}
	}
}

func TestFlatVisitFilter(t *testing.T) {
	ds := dataset.Uniform(50, 4, 7)
	f, _ := NewFlat(ds.Data, 50, 4, nil)
	got, err := f.Search(ds.Row(0), 5, Params{Filter: func(id int64) bool { return id%2 == 0 }})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.ID%2 != 0 {
			t.Fatalf("filter violated: id %d", r.ID)
		}
	}
}

func TestFlatStats(t *testing.T) {
	ds := dataset.Uniform(20, 4, 9)
	f, _ := NewFlat(ds.Data, 20, 4, nil)
	var st SearchStats
	f.Search(ds.Row(0), 3, Params{Stats: &st})
	if st.DistanceComps != 20 || st.Partitions != 1 {
		t.Fatalf("stats = %+v, want 20 comps in 1 partition", st)
	}
}

func TestFlatSearchRange(t *testing.T) {
	data := []float32{0, 1, 2, 10}
	f, _ := NewFlat(data, 4, 1, nil)
	got, err := f.SearchWindow([]float32{0}, 4, Params{}, topk.Window{Radius: 4.5})
	if err != nil {
		t.Fatal(err)
	}
	// Squared L2 <= 4.5 keeps 0, 1 and 2, nearest first.
	if fmt.Sprint(got) != "[{0 0} {1 1} {2 4}]" {
		t.Fatalf("range hits = %v", got)
	}
	// A row exactly at the radius is kept; one at the next float32 above
	// it is not.
	if got, _ := f.SearchWindow([]float32{0}, 4, Params{}, topk.Window{Radius: 4}); len(got) != 3 {
		t.Fatalf("radius 4: %v, want row 2 at distance 4 kept", got)
	}
	if got, _ := f.SearchWindow([]float32{0}, 4, Params{}, topk.Window{Radius: math.Nextafter32(4, 0)}); len(got) != 2 {
		t.Fatalf("radius below 4: %v, want row 2 dropped", got)
	}
	if _, err := f.SearchWindow([]float32{0, 0}, 1, Params{}, topk.Window{Radius: 1}); !errors.Is(err, ErrDim) {
		t.Fatal("want dim error")
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	found := false
	for _, n := range names {
		if n == "flat" {
			found = true
		}
	}
	if !found {
		t.Fatalf("flat not registered: %v", names)
	}
	ds := dataset.Uniform(10, 2, 1)
	idx, err := Build("flat", ds.Data, 10, 2, vec.L2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Name() != "flat" || idx.Size() != 10 {
		t.Fatal("registry build wrong")
	}
	if _, err := Build("nope", ds.Data, 10, 2, vec.L2, nil); err == nil {
		t.Fatal("want unknown-index error")
	}
	if _, err := Build("flat", ds.Data, 10, 2, vec.L2, map[string]int{"x": 1}); err == nil {
		t.Fatal("want options error")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Register(Family{Name: "flat"})
}

func TestParamsAdmits(t *testing.T) {
	var p Params
	if !p.Admits(5) || p.Constrained() {
		t.Fatal("unconstrained params must admit everything")
	}
	b := bitset.New(10)
	b.Set(3)
	p = Params{Allow: b, Filter: func(id int64) bool { return id > 2 }}
	if !p.Constrained() {
		t.Fatal("Constrained wrong")
	}
	if !p.Admits(3) {
		t.Fatal("3 passes both")
	}
	if p.Admits(4) { // filter passes but bitset blocks
		t.Fatal("4 must be blocked")
	}
}
