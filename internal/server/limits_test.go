package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vdbms"
	"vdbms/internal/dataset"
	"vdbms/internal/index"
)

// TestHugeKReturnsEveryRow: a k far past the collection's rows asks for
// every row. Sent over HTTP to a 200-row collection — to the planned
// search on an HNSW index, a forced exact scan, a post-filter with an
// alpha as large, and a /batch — it is answered with the 200 hits of
// k = 200, not by sizing a collector of 2^33 entries (which killed the
// process with "fatal error: out of memory").
func TestHugeKReturnsEveryRow(t *testing.T) {
	const n, dim = 200, 8
	db := vdbms.New()
	col, err := db.CreateCollection("c", vdbms.Schema{Dim: dim, Attributes: map[string]string{"cat": "int"}})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(n, dim, 4, 0.3, 3)
	for i := 0; i < n; i++ {
		if _, err := col.Insert(ds.Row(i), map[string]any{"cat": i % 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := col.CreateIndex("hnsw", map[string]int{"m": 8}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(New(db))
	defer hs.Close()
	post := func(path, body string) []byte {
		t.Helper()
		resp, err := hs.Client().Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d %s %v", path, body, resp.StatusCode, out, err)
		}
		return out
	}
	vector, _ := json.Marshal(ds.Row(5))
	const huge = 8589934592
	for _, extra := range []string{
		``,
		`,"policy":"plan:brute_force"`,
		`,"policy":"plan:post_filter","alpha":8589934592,"filters":[{"column":"cat","op":"=","value":1}]`,
	} {
		var got, want struct{ Hits []struct{ ID int64 } }
		wantN := n
		if strings.Contains(extra, "filters") {
			wantN = n / 2
		}
		if err := json.Unmarshal(post("/collections/c/search", fmt.Sprintf(`{"vector":%s,"k":%d%s}`, vector, huge, extra)), &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(post("/collections/c/search", fmt.Sprintf(`{"vector":%s,"k":%d%s}`, vector, n, extra)), &want); err != nil {
			t.Fatal(err)
		}
		if len(got.Hits) != wantN || fmt.Sprint(got.Hits) != fmt.Sprint(want.Hits) {
			t.Fatalf("k=%d%s: %d hits %v, k=%d gave %d %v", huge, extra, len(got.Hits), got.Hits, n, len(want.Hits), want.Hits)
		}
	}
	var batch struct{ Results [][]struct{ ID int64 } }
	if err := json.Unmarshal(post("/collections/c/batch", fmt.Sprintf(`{"vectors":[%s,%s,%s],"k":%d}`, vector, vector, vector, huge)), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("batch: %d results, want 3", len(batch.Results))
	}
	for i, hits := range batch.Results {
		if len(hits) != n {
			t.Fatalf("batch query %d: %d hits, want %d", i, len(hits), n)
		}
	}
}

// TestIndexOptionsRefused: index options outside a family's declared
// table are refused before a build starts. Each of these bodies, sent
// to the index route of a 200-row collection, killed the process with
// "runtime: out of memory" (hnsw m, vamana r, lsh l and k) or built for
// longer than anyone waited (nsg r, knng k, kdforest trees). Each must
// now get a 400 naming the key within a second, and the collection
// must go on answering searches on the index it already had.
func TestIndexOptionsRefused(t *testing.T) {
	const n, dim = 200, 8
	db := vdbms.New()
	col, err := db.CreateCollection("c", vdbms.Schema{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(n, dim, 4, 0.3, 3)
	for i := 0; i < n; i++ {
		if _, err := col.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := col.CreateIndex("hnsw", map[string]int{"m": 8}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(New(db))
	defer hs.Close()
	vector, _ := json.Marshal(ds.Row(5))
	const huge = 8589934592
	for _, tc := range []struct {
		kind, key string
		value     int
	}{
		{"hnsw", "m", huge},
		{"vamana", "r", huge},
		{"nsg", "r", huge},
		{"lsh", "l", huge},
		{"lsh", "k", huge},
		{"knng", "k", huge},
		{"kdforest", "trees", huge},
		{"hnsw", "zz", 1},
	} {
		body := fmt.Sprintf(`{"kind":%q,"opts":{%q:%d}}`, tc.kind, tc.key, tc.value)
		start := time.Now()
		resp, err := hs.Client().Post(hs.URL+"/collections/c/index", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]string
		decodeErr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if took := time.Since(start); took > time.Second {
			t.Fatalf("%s: answered after %v, want within 1s", body, took)
		}
		if resp.StatusCode != http.StatusBadRequest || decodeErr != nil ||
			!strings.Contains(out["error"], index.ErrOption.Error()) || !strings.Contains(out["error"], fmt.Sprintf("%q", tc.key)) {
			t.Fatalf("%s: status %d %v, want 400 and an index.ErrOption error naming %q", body, resp.StatusCode, out, tc.key)
		}
		search, err := hs.Client().Post(hs.URL+"/collections/c/search", "application/json", strings.NewReader(fmt.Sprintf(`{"vector":%s,"k":5}`, vector)))
		if err != nil {
			t.Fatal(err)
		}
		var hits struct{ Hits []struct{ ID int64 } }
		decodeErr = json.NewDecoder(search.Body).Decode(&hits)
		search.Body.Close()
		if search.StatusCode != http.StatusOK || decodeErr != nil || len(hits.Hits) != 5 || hits.Hits[0].ID != 5 {
			t.Fatalf("search after %s: status %d %v %v", body, search.StatusCode, hits.Hits, decodeErr)
		}
		if kind, _, _ := col.IndexInfo(); kind != "hnsw" {
			t.Fatalf("after %s the collection serves %q, want its hnsw index", body, kind)
		}
	}
}

// TestOversizedBodyIs413: every route reads at most MaxBodyBytes of a
// body; past that the request is refused with 413 and a JSON error,
// whether the route decodes by hand (search, batch, insert) or with
// encoding/json (collections, index, query).
func TestOversizedBodyIs413(t *testing.T) {
	db := vdbms.New()
	if _, err := db.CreateCollection("c", vdbms.Schema{Dim: 2}); err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	// A vector that never ends: the body is MaxBodyBytes+11 bytes.
	big := append([]byte(`{"vector":[`), bytes.Repeat([]byte("0,"), MaxBodyBytes/2)...)
	for _, path := range []string{
		"/collections/c/search", "/collections/c/batch", "/collections/c/vectors",
		"/collections", "/collections/c/index", "/query",
	} {
		req := httptest.NewRequest("POST", path, bytes.NewReader(big))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		var out map[string]string
		if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &out) != nil || !strings.Contains(out["error"], "limit") {
			t.Fatalf("%s: status %d %.200q, want 413 and a JSON error naming the limit", path, rec.Code, rec.Body.Bytes())
		}
	}
	// A body under the limit is judged on its content.
	rec, _ := doJSON(t, srv, "POST", "/collections/c/search", SearchBody{Vector: []float32{1, 2}, K: 1})
	if rec.Code != http.StatusBadRequest || bytes.Contains(rec.Body.Bytes(), []byte("limit")) {
		t.Fatalf("search on an empty collection: status %d %s, want 400", rec.Code, rec.Body)
	}
}
