package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"vdbms"
	"vdbms/internal/dataset"
)

// costServer serves a collection "c" of 20 000 16-d rows with an int
// attribute "cat" under an ivfflat index, and returns one of its rows
// as a query vector, JSON-encoded.
func costServer(t *testing.T) (*Server, string) {
	t.Helper()
	const n, dim = 20_000, 16
	db := vdbms.New()
	col, err := db.CreateCollection("c", vdbms.Schema{Dim: dim, Attributes: map[string]string{"cat": "int"}})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(n, dim, 16, 0.5, 7)
	for i := 0; i < n; i++ {
		if _, err := col.Insert(ds.Row(i), map[string]any{"cat": i % 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := col.CreateIndex("ivfflat", nil); err != nil {
		t.Fatal(err)
	}
	v, err := json.Marshal(ds.Row(11))
	if err != nil {
		t.Fatal(err)
	}
	return New(db), string(v)
}

// post sends body to route on srv and returns the status and answer.
func post(srv *Server, route, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/collections/c/"+route, bytes.NewReader([]byte(body))))
	return rec.Code, rec.Body.Bytes()
}

// TestSearchBodyCostBoundedByRows: no integer field of a search body,
// however large, makes the engine do more than answering with every
// row does. Each field at 2^33 — k, ef, nprobe, alpha (under a forced
// post_filter with a filter), rerank_k, and the retired parallelism
// key (under a forced brute_force, where it once set the scan's part
// count) — may allocate at most twice the objects of {"k": 20000}.
func TestSearchBodyCostBoundedByRows(t *testing.T) {
	srv, v := costServer(t)
	const huge = "8589934592"
	filter := `"filters":[{"column":"cat","op":"<","value":5}]`
	// mallocs is the fewest objects of three sends of body.
	mallocs := func(body string) uint64 {
		fewest := ^uint64(0)
		var before, after runtime.MemStats
		for range 3 {
			runtime.ReadMemStats(&before)
			code, out := post(srv, "search", body)
			runtime.ReadMemStats(&after)
			if code != http.StatusOK {
				t.Fatalf("%s: status %d %s", body, code, out)
			}
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		return fewest
	}
	all := mallocs(`{"vector":` + v + `,"k":20000}`)
	for _, body := range []string{
		`{"vector":` + v + `,"k":` + huge + `}`,
		`{"vector":` + v + `,"k":10,"ef":` + huge + `}`,
		`{"vector":` + v + `,"k":10,"nprobe":` + huge + `}`,
		`{"vector":` + v + `,"k":10,"policy":"plan:post_filter",` + filter + `,"alpha":` + huge + `}`,
		`{"vector":` + v + `,"k":10,"rerank_k":` + huge + `}`,
		`{"vector":` + v + `,"k":10,"policy":"plan:brute_force","parallelism":` + huge + `}`,
	} {
		if got := mallocs(body); got > 2*all {
			t.Errorf("%s allocated %d objects, answering every row %d", body[len(v)+11:], got, all)
		}
	}
}

// TestRetiredParallelismKeyIsSkipped: a body that still carries the
// retired "parallelism" key answers /search and /batch with 200 and
// the very bytes of the same body without it.
func TestRetiredParallelismKeyIsSkipped(t *testing.T) {
	srv, v := costServer(t)
	for _, c := range []struct{ route, body string }{
		{"search", `{"vector":` + v + `,"k":10%s}`},
		{"search", `{"vector":` + v + `,"k":10,"policy":"plan:brute_force"%s}`},
		{"batch", `{"vectors":[` + v + `,` + v + `],"k":10%s}`},
	} {
		wantCode, want := post(srv, c.route, fmt.Sprintf(c.body, ""))
		code, got := post(srv, c.route, fmt.Sprintf(c.body, `,"parallelism":4`))
		if wantCode != http.StatusOK || code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s %s: %d %s, without the key %d %s", c.route, c.body, code, got, wantCode, want)
		}
	}
}
