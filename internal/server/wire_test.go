package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"vdbms"
	"vdbms/internal/dataset"
)

// TestWireFormatGolden pins the JSON the search route and collection
// info speak: the bodies the load benchmark sends (one per workload,
// benchmark/data.go builds them the same way), a search result, and the
// stats document, byte for byte.
func TestWireFormatGolden(t *testing.T) {
	v := []float32{0.5, -1.25, 3e-7, 12345.678}
	for _, c := range []struct {
		v    any
		want string
	}{
		{SearchBody{Vector: v, K: 10, Ef: 64},
			`{"vector":[0.5,-1.25,3e-7,12345.678],"k":10,"ef":64}`},
		{SearchBody{Vector: v, K: 10, Ef: 64, Filters: []vdbms.Filter{{Column: "cat", Op: "<", Value: int64(10)}}},
			`{"vector":[0.5,-1.25,3e-7,12345.678],"k":10,"filters":[{"Column":"cat","Op":"\u003c","Value":10,"Set":null}],"ef":64}`},
		{SearchBody{Vector: v, K: 10, Policy: "plan:brute_force"},
			`{"vector":[0.5,-1.25,3e-7,12345.678],"k":10,"policy":"plan:brute_force"}`},
		{SearchBody{Vector: v, K: 10, NProbe: 8},
			`{"vector":[0.5,-1.25,3e-7,12345.678],"k":10,"nprobe":8}`},
		{SearchBody{Vector: v, K: 10, Trace: true},
			`{"vector":[0.5,-1.25,3e-7,12345.678],"k":10}`},
		{vdbms.SearchResult{Hits: []vdbms.Hit{{ID: 3, Dist: 0.25}}, Plan: "single_stage", Ef: 64, ParamSource: "explicit"},
			`{"Hits":[{"ID":3,"Dist":0.25}],"Plan":"single_stage","Ef":64,"NProbe":0,"ParamSource":"explicit"}`},
		{vdbms.CollectionStats{},
			`{"rows":0,"live":0,"deleted":0,"dim":0,"inserts":0,"updates":0,"deletes":0,"queries":0,` +
				`"inserts_per_sec":0,"updates_per_sec":0,"deletes_per_sec":0,"queries_per_sec":0,"filtered_fraction":0,` +
				`"k":{"count":0,"mean":0},"ef":{"count":0,"mean":0},"nprobe":{"count":0,"mean":0},` +
				`"ann_probes":0,"ann_probe_mean_comps":0,` +
				`"calibration":{"ns_per_comp":0,"ns_per_quant_comp":0,"ns_per_attr_eval":0,"comp_scans":0,"quant_scans":0,"attr_scans":0}}`},
	} {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Fatalf("%T:\n got %s\nwant %s", c.v, got, c.want)
		}
	}
}

// entityServer serves collection "e": 300 8-d rows, three per entity of
// the int column "person".
func entityServer(t *testing.T) (*Server, *vdbms.Collection, *dataset.Dataset) {
	t.Helper()
	db := vdbms.New()
	col, err := db.CreateCollection("e", vdbms.Schema{Dim: 8, Attributes: map[string]string{"person": "int"}})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(300, 8, 6, 0.3, 5)
	for i := 0; i < ds.Count; i++ {
		if _, err := col.Insert(ds.Row(i), map[string]any{"person": i / 3}); err != nil {
			t.Fatal(err)
		}
	}
	return New(db), col, ds
}

// TestWeightedSumOverHTTP: the weights of a weighted_sum query reach the
// engine, which answers as the library does; without one weight per
// query vector the query is the client's error.
func TestWeightedSumOverHTTP(t *testing.T) {
	srv, col, ds := entityServer(t)
	req := SearchBody{
		Vectors: [][]float32{ds.Row(30), ds.Row(31)}, K: 3,
		EntityColumn: "person", Aggregator: "weighted_sum", Weights: []float32{0.25, 0.75},
	}
	want, err := col.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := doJSON(t, srv, "POST", "/collections/e/search", req)
	var got vdbms.SearchResult
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("weighted_sum: %d %s", rec.Code, rec.Body)
	}
	if fmt.Sprint(got.Hits) != fmt.Sprint(want.Hits) {
		t.Fatalf("HTTP hits %v, library %v", got.Hits, want.Hits)
	}
	for _, weights := range [][]float32{nil, {1}} {
		req.Weights = weights
		rec, _ := doJSON(t, srv, "POST", "/collections/e/search", req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("weights %v: %d %s, want 400", weights, rec.Code, rec.Body)
		}
	}
}

// TestStatsShowCalibration: collection info and /debug/stats render the
// same stats document, with the planner's measured calibration in both.
func TestStatsShowCalibration(t *testing.T) {
	srv, s, _, ds := ownershipServer(t)
	for i := 0; i < 20; i++ {
		if _, err := s.Search(vdbms.SearchRequest{Vector: ds.Row(i), K: 10, Ef: 64}); err != nil {
			t.Fatal(err)
		}
	}
	compScans := func(where string, stats any) {
		t.Helper()
		doc, _ := stats.(map[string]any)
		cal, _ := doc["calibration"].(map[string]any)
		if n, _ := cal["comp_scans"].(float64); n <= 0 {
			t.Fatalf("%s: calibration %v, want comp_scans > 0", where, cal)
		}
	}
	rec, info := doJSON(t, srv, "GET", "/collections/s", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("info: %d %s", rec.Code, rec.Body)
	}
	compScans("collection info", info["stats"])
	rec, debug := doJSON(t, srv, "GET", "/debug/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("debug stats: %d %s", rec.Code, rec.Body)
	}
	cols, _ := debug["collections"].(map[string]any)
	compScans("/debug/stats", cols["s"])
}
