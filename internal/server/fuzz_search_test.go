package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vdbms"
	"vdbms/internal/dataset"
	"vdbms/internal/planner"
	"vdbms/internal/topk"
)

// FuzzSearchRequest drives the search route end to end: any body, sent
// to a 200-row collection with an hnsw index and an int attribute,
// answers 200 or 4xx within a second, and a 200 carries at most k
// distinct ids, each below Rows, in (dist, id) order — within the
// radius when one is set, and strictly after the cursor when one is.
// The seeds are the benchmark's bodies (as TestWireFormatGolden pins
// them, on the collection's dimension), each with one integer field at
// 2^33 and each with the retired "parallelism" key at 2^33, which the
// server skips like any unknown key, one body per forced plan, and ranges (radius 0, 2^33, negative,
// one admitting a few rows) and pages past a cursor.
func FuzzSearchRequest(f *testing.F) {
	const n, dim = 200, 8
	db := vdbms.New()
	col, err := db.CreateCollection("c", vdbms.Schema{Dim: dim, Attributes: map[string]string{"cat": "int"}})
	if err != nil {
		f.Fatal(err)
	}
	ds := dataset.Clustered(n, dim, 4, 0.3, 3)
	for i := 0; i < n; i++ {
		if _, err := col.Insert(ds.Row(i), map[string]any{"cat": i % 10}); err != nil {
			f.Fatal(err)
		}
	}
	if err := col.CreateIndex("hnsw", map[string]int{"m": 8}); err != nil {
		f.Fatal(err)
	}
	hs := httptest.NewServer(New(db))
	f.Cleanup(hs.Close)

	v := ds.Row(5)
	golden := []SearchBody{
		{Vector: v, K: 10, Ef: 64},
		{Vector: v, K: 10, Ef: 64, Filters: []vdbms.Filter{{Column: "cat", Op: "<", Value: int64(3)}}},
		{Vector: v, K: 10, Policy: "plan:brute_force"},
		{Vector: v, K: 10, NProbe: 8},
	}
	marshal := func(b SearchBody) []byte {
		body, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	add := func(b SearchBody) { f.Add(marshal(b)) }
	const huge = 1 << 33
	for _, b := range golden {
		add(b)
		body := marshal(b)
		f.Add(append(body[:len(body)-1:len(body)-1], `,"parallelism":8589934592}`...))
		for _, field := range []func(*SearchBody) *int{
			func(b *SearchBody) *int { return &b.K },
			func(b *SearchBody) *int { return &b.Ef },
			func(b *SearchBody) *int { return &b.NProbe },
			func(b *SearchBody) *int { return &b.Alpha },
			func(b *SearchBody) *int { return &b.RerankK },
		} {
			s := b
			*field(&s) = huge
			add(s)
		}
	}
	for k := planner.BruteForce; k <= planner.SingleStage; k++ {
		add(SearchBody{Vector: v, K: 10, Policy: "plan:" + k.String(), Alpha: 8,
			Filters: []vdbms.Filter{{Column: "cat", Op: "=", Value: int64(1)}}})
		add(SearchBody{Vector: v, K: 10, Policy: "plan:" + k.String(), After: &vdbms.Hit{ID: 7, Dist: 0.5}})
	}
	for _, radius := range []float32{0, huge, -1, 0.5} {
		add(SearchBody{Vector: v, K: 10, Radius: radius})
		add(SearchBody{Vector: v, K: 10, Radius: radius, After: &vdbms.Hit{ID: 3, Dist: 0.1}})
	}
	add(SearchBody{Vector: v, K: 10, After: &vdbms.Hit{ID: huge, Dist: 0}})

	client := &http.Client{Timeout: 5 * time.Second}
	f.Fuzz(func(t *testing.T, body []byte) {
		start := time.Now()
		resp, err := client.Post(hs.URL+"/collections/c/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("%q: answered %d after %v", body, resp.StatusCode, elapsed)
		}
		if err != nil {
			t.Fatalf("%q: reading the answer: %v", body, err)
		}
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d %s", body, resp.StatusCode, out)
		}
		var req SearchBody
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("%q: answered 200, but encoding/json refuses it: %v", body, err)
		}
		var res struct{ Hits []vdbms.Hit }
		if err := json.Unmarshal(out, &res); err != nil {
			t.Fatalf("%q: answer %s: %v", body, out, err)
		}
		rows := int64(col.Stats().Rows)
		seen := map[int64]bool{}
		for i, h := range res.Hits {
			if seen[h.ID] || h.ID < 0 || h.ID >= rows {
				t.Fatalf("%q: hits %v repeat an id or name one past %d rows", body, res.Hits, rows)
			}
			seen[h.ID] = true
			if i > 0 && !topk.Less(res.Hits[i-1], h) {
				t.Fatalf("%q: hits %v out of (dist, id) order at %d", body, res.Hits, i)
			}
			if req.Radius > 0 && h.Dist > req.Radius {
				t.Fatalf("%q: hit %v past the radius %v", body, h, req.Radius)
			}
			if req.After != nil && !topk.Less(*req.After, h) {
				t.Fatalf("%q: hit %v not after the cursor %v", body, h, *req.After)
			}
		}
		if len(res.Hits) > req.K {
			t.Fatalf("%q: %d hits for k=%d", body, len(res.Hits), req.K)
		}
	})
}
