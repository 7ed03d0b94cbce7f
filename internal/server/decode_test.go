package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"vdbms"
	"vdbms/internal/dataset"
)

// benchBodies are the bodies the load benchmark sends (benchmark/data.go
// encodes them the same way): an ann_search, a filtered_search, an
// exact_scan and a mixed_rw_durable search, then an insert.
func benchBodies(t testing.TB) (search [][]byte, insert []byte) {
	t.Helper()
	q := dataset.Clustered(200, 128, 8, 1, 1).Queries(1, 0.5, 3)[0]
	for _, body := range []SearchBody{
		{Vector: q, K: 10, Ef: 64},
		{Vector: q, K: 10, Ef: 64, Filters: []vdbms.Filter{{Column: "cat", Op: "<", Value: int64(10)}}},
		{Vector: q, K: 10, Policy: "plan:brute_force"},
		{Vector: q, K: 10, NProbe: 8},
	} {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		search = append(search, b)
	}
	insert, err := json.Marshal(InsertRequest{Vector: q, Attrs: map[string]any{"cat": int64(42)}})
	if err != nil {
		t.Fatal(err)
	}
	return search, insert
}

// decodeSeeds covers what the fast pass must refuse or reproduce:
// escapes, non-ASCII and mixed-case keys, repeated keys, nulls,
// exponents, float32 overflow, integers written as floats, unknown keys
// and bytes after the value.
var decodeSeeds = []string{
	``, `null`, `[]`, `"x"`, `{}`, ` {"k":1} `, `{"k":1}trailing`, `{"k":1}}`, `{"k":1`, `{"k":1,}`,
	`{"k" : 1 , "ef":2}`, "{\n\t\"k\":1\r}",
	`{"VECTOR":[1,2],"K":3,"Ef":4,"nProbe":5,"Target_Recall":0.5}`,
	`{"K":1}`, `{"ſ":1}`, `{"vectorſ":[1]}`, `{"ks":1}`, `{"k":1}`,
	`{"policy":"plan:brute_force"}`, `{"policy":"a\"b"}`, `{"policy":"naïve"}`, "{\"policy\":\"\xff\"}",
	`{"\u006b":1}`, `{"\u212a":1}`, `{"\u017f":1}`, `{"policy":"\u00e9\n\t\/\\\b\f\r\u003c"}`,
	`{"policy":"\ud83d\ude00"}`, `{"policy":"\ud800"}`, `{"policy":"\x"}`, `{"policy":"\u12"}`, `{"policy":"\u00E9"}`,
	"{\"policy\":\"a\tb\"}", `{"attrs":{"\u0061":1,"a":2}}`,
	`{"vector":[1,2],"vector":[3]}`, `{"k":1,"K":2}`,
	`{"filters":[{"Column":"a"}],"filters":[{"Op":"<"}]}`, `{"filters":[{"Column":"a","column":"b"}]}`,
	`{"vector":null,"k":null,"filters":null,"policy":null,"target_recall":null}`,
	`{"vector":[1,null]}`, `{"vector":[]}`, `{"vectors":[]}`, `{"vectors":[null,[],[1,2]]}`, `{"vectors":null}`,
	`{"filters":[]}`, `{"filters":[null,{"Value":null,"Set":null}]}`,
	`{"filters":[{"column":"cat","op":"in","set":[1,"a",true,null,2.5]}]}`,
	`{"filters":[{"Column":"cat","Op":"<","Value":10,"Set":null}]}`,
	`{"filters":[{"Value":[1]}]}`, `{"filters":[{"Value":{"a":1}}]}`, `{"filters":[{"Set":[[1]]}]}`,
	`{"vector":[1e3,-2.5E-3,0e0,-0,1E+2],"k":1e1}`, `{"target_recall":9.5e-1}`,
	`{"vector":[1e39]}`, `{"vector":[-3.5e38]}`, `{"vector":[1e-50]}`, `{"target_recall":1e400}`, `{"filters":[{"Value":1e400}]}`,
	`{"k":10.0}`, `{"ef":1e2}`, `{"k":-0}`, `{"k":9223372036854775807}`, `{"k":9223372036854775808}`,
	`{"k":01}`, `{"k":.5}`, `{"k":+1}`, `{"vector":[1.]}`, `{"vector":[0x10]}`, `{"vector":["1"]}`, `{"k":"1"}`, `{"k":true}`,
	`{"zz":{"a":[1,{"b":null}],"c":"d"},"k":2}`, `{"zz":"\n"}`, `{"zz":[1,]}`, `{"zz":tru}`, `{"zz":[[[[[[[[[[1]]]]]]]]]]}`,
	`{"vectors":[[1,2],[3]],"k":2,"parallelism":1,"alpha":3,"rerank_k":4,"entity_column":"e","aggregator":"min"}`,
	// InsertRequest shapes.
	`{"vector":[1,2],"attrs":{"cat":7.0,"name":"x","ok":true,"none":null}}`, `{"attrs":{}}`, `{"attrs":null}`,
	`{"attrs":{"a":1},"attrs":{"b":2}}`, `{"attrs":{"a":1,"a":2}}`, `{"attrs":{"ключ":1}}`, `{"Attrs":{"a":[1]}}`,
	`{"attrs":{"a":{"b":1}}}`, `{"attrs":[1]}`, `{"attrs":{"ab":1}}`, "{\"attrs\":{\"\xff\":1}}",
	// weighted_sum weights; Trace is never read from a body.
	`{"vectors":[[1,2],[3,4]],"k":2,"entity_column":"e","aggregator":"weighted_sum","weights":[0.25,0.75]}`,
	`{"weights":null}`, `{"weights":[]}`, `{"weights":[1],"Weights":[2]}`, `{"Weights":[1e39]}`, `{"trace":true,"Trace":1,"-":2}`,
}

func addSeeds(f *testing.F) {
	search, insert := benchBodies(f)
	for _, b := range search {
		f.Add(b)
	}
	f.Add(insert)
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
}

// FuzzDecodeSearchBody holds the search/batch decoder to encoding/json:
// for every input both fail with the same text or both yield equal
// structs, and the fast pass alone never accepts an input encoding/json
// refuses or decodes differently.
func FuzzDecodeSearchBody(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		var want SearchBody
		wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
		var got SearchBody
		gotErr := new(reqBuf).decodeSearch(bytes.NewReader(b), &got)
		sameOutcome(t, b, got, want, gotErr, wantErr)
		var fast SearchBody
		if (&reqBuf{body: b}).searchBody(&fast) && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
			t.Fatalf("%q: fast pass accepted %+v, encoding/json: %+v, %v", b, fast, want, wantErr)
		}
	})
}

// FuzzDecodeInsertBody is FuzzDecodeSearchBody for the insert decoder.
func FuzzDecodeInsertBody(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		var want InsertRequest
		wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
		var got InsertRequest
		gotErr := new(reqBuf).decodeInsert(bytes.NewReader(b), &got)
		sameOutcome(t, b, got, want, gotErr, wantErr)
		var fast InsertRequest
		if (&reqBuf{body: b}).insertBody(&fast) && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
			t.Fatalf("%q: fast pass accepted %+v, encoding/json: %+v, %v", b, fast, want, wantErr)
		}
	})
}

func sameOutcome(t *testing.T, b []byte, got, want any, gotErr, wantErr error) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%q: error %v, encoding/json: %v", b, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%q: error %q, encoding/json: %q", b, gotErr, wantErr)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%q: decoded %+v, encoding/json: %+v", b, got, want)
	}
}

// TestFastPassTakesBenchmarkBodies: the bodies the benchmark sends never
// reach encoding/json.
func TestFastPassTakesBenchmarkBodies(t *testing.T) {
	search, insert := benchBodies(t)
	for _, b := range search {
		var req SearchBody
		if !(&reqBuf{body: b}).searchBody(&req) {
			t.Fatalf("fast pass refused %s", b)
		}
	}
	var req InsertRequest
	if !(&reqBuf{body: insert}).insertBody(&req) {
		t.Fatalf("fast pass refused %s", insert)
	}
}

// BenchmarkDecodeSearchBody decodes the ann_search body with the fast
// pass (into a pooled buffer, as the handler does) and with
// encoding/json, which the search route used before.
func BenchmarkDecodeSearchBody(b *testing.B) {
	search, _ := benchBodies(b)
	body := search[0]
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		rd := bytes.NewReader(body)
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			rb := getReqBuf()
			if err := rb.decodeSearch(rd, &rb.search); err != nil {
				b.Fatal(err)
			}
			rb.release()
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req SearchBody
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
