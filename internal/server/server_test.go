package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vdbms"
	"vdbms/internal/dataset"
)

func doJSON(t *testing.T, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := map[string]any{}
	if rec.Body.Len() > 0 {
		_ = json.Unmarshal(rec.Body.Bytes(), &out)
	}
	return rec, out
}

func TestHTTPLifecycle(t *testing.T) {
	srv := New(vdbms.New())

	rec, _ := doJSON(t, srv, "POST", "/collections", CreateCollectionRequest{
		Name: "docs",
		Schema: vdbms.Schema{
			Dim:        4,
			Attributes: map[string]string{"cat": "int", "score": "float"},
		},
	})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	// Duplicate fails.
	rec, _ = doJSON(t, srv, "POST", "/collections", CreateCollectionRequest{
		Name: "docs", Schema: vdbms.Schema{Dim: 4},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("duplicate create: %d", rec.Code)
	}
	// List.
	rec, out := doJSON(t, srv, "GET", "/collections", nil)
	if rec.Code != http.StatusOK || len(out["collections"].([]any)) != 1 {
		t.Fatalf("list: %d %v", rec.Code, out)
	}
	// Insert rows.
	ds := dataset.Clustered(100, 4, 3, 0.3, 1)
	for i := 0; i < 100; i++ {
		rec, out = doJSON(t, srv, "POST", "/collections/docs/vectors", InsertRequest{
			Vector: ds.Row(i),
			Attrs:  map[string]any{"cat": i % 5, "score": float64(i) + 0.5},
		})
		if rec.Code != http.StatusCreated {
			t.Fatalf("insert %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	// Collection info.
	rec, out = doJSON(t, srv, "GET", "/collections/docs", nil)
	if rec.Code != http.StatusOK || out["len"].(float64) != 100 {
		t.Fatalf("info: %d %v", rec.Code, out)
	}
	// Build index.
	rec, _ = doJSON(t, srv, "POST", "/collections/docs/index", IndexRequest{Kind: "hnsw", Opts: map[string]int{"m": 8}})
	if rec.Code != http.StatusCreated {
		t.Fatalf("index: %d %s", rec.Code, rec.Body)
	}
	// Search with an int filter sent as a JSON number.
	rec, out = doJSON(t, srv, "POST", "/collections/docs/search", SearchBody{
		Vector: ds.Row(7), K: 5, Ef: 100,
		Filters: []vdbms.Filter{{Column: "cat", Op: "=", Value: 2.0}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body)
	}
	hits := out["Hits"].([]any)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	for _, h := range hits {
		id := int64(h.(map[string]any)["ID"].(float64))
		if id%5 != 2 {
			t.Fatalf("filter violated: %d", id)
		}
	}
	// A fractional bound on an int column keeps its meaning (cat < 2.5
	// is cat <= 2, not the truncated cat < 2).
	rec, out = doJSON(t, srv, "POST", "/collections/docs/search", SearchBody{
		Vector: ds.Row(7), K: 100, Policy: "plan:brute_force",
		Filters: []vdbms.Filter{{Column: "cat", Op: "<", Value: 2.5}},
	})
	if rec.Code != http.StatusOK || len(out["Hits"].([]any)) != 60 {
		t.Fatalf("cat < 2.5: %d, %d hits, want the 60 rows with cat 0..2", rec.Code, len(out["Hits"].([]any)))
	}
	// An operand of the wrong type is the client's error.
	for _, f := range []vdbms.Filter{
		{Column: "cat", Op: "=", Value: "2"},
		{Column: "score", Op: "<", Value: "low"},
		{Column: "cat", Op: "in", Set: []any{1.0, "two"}},
	} {
		rec, _ = doJSON(t, srv, "POST", "/collections/docs/search", SearchBody{Vector: ds.Row(7), K: 5, Filters: []vdbms.Filter{f}})
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "does not match column type") {
			t.Fatalf("%+v: %d %s, want 400 naming the type mismatch", f, rec.Code, rec.Body)
		}
	}
	// Float filter works too.
	rec, out = doJSON(t, srv, "POST", "/collections/docs/search", SearchBody{
		Vector: ds.Row(7), K: 5,
		Filters: []vdbms.Filter{{Column: "score", Op: "<", Value: 50}},
	})
	if rec.Code != http.StatusOK || len(out["Hits"].([]any)) == 0 {
		t.Fatalf("float filter: %d %v", rec.Code, out)
	}
	// VQL endpoint.
	rec, out = doJSON(t, srv, "POST", "/query", QueryRequest{
		Query: fmt.Sprintf("SELECT 3 FROM docs NEAR [%f, %f, %f, %f]", ds.Row(7)[0], ds.Row(7)[1], ds.Row(7)[2], ds.Row(7)[3]),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("vql: %d %s", rec.Code, rec.Body)
	}
	search := out["Search"].(map[string]any)
	if hits := search["Hits"].([]any); int64(hits[0].(map[string]any)["ID"].(float64)) != 7 {
		t.Fatalf("vql hits: %v", hits)
	}
	// DDL and DML through /query.
	rec, out = doJSON(t, srv, "POST", "/query", QueryRequest{Query: "CREATE COLLECTION q2 DIM 2"})
	if rec.Code != http.StatusOK || out["Kind"].(string) != "create_collection" {
		t.Fatalf("vql create: %d %v", rec.Code, out)
	}
	rec, out = doJSON(t, srv, "POST", "/query", QueryRequest{Query: "INSERT INTO q2 VECTOR [1, 2]"})
	if rec.Code != http.StatusOK || out["Kind"].(string) != "insert" {
		t.Fatalf("vql insert: %d %v", rec.Code, out)
	}
	// Drop.
	rec, _ = doJSON(t, srv, "DELETE", "/collections/docs", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("drop: %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, "DELETE", "/collections/docs", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("double drop: %d", rec.Code)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := New(vdbms.New())
	cases := []struct {
		method, path string
		body         any
		want         int
	}{
		{"PUT", "/collections", nil, http.StatusMethodNotAllowed},
		{"GET", "/collections/missing", nil, http.StatusNotFound},
		{"POST", "/collections/missing/search", SearchBody{}, http.StatusNotFound},
		{"POST", "/query", QueryRequest{Query: "garbage"}, http.StatusBadRequest},
		{"GET", "/query", nil, http.StatusMethodNotAllowed},
		{"POST", "/collections/", nil, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec, _ := doJSON(t, srv, tc.method, tc.path, tc.body)
		if rec.Code != tc.want {
			t.Fatalf("%s %s: %d, want %d", tc.method, tc.path, rec.Code, tc.want)
		}
	}
	// Bad JSON body.
	req := httptest.NewRequest("POST", "/collections", bytes.NewBufferString("{"))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad json: %d", rec.Code)
	}
	// Health.
	req = httptest.NewRequest("GET", "/healthz", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("health: %d", rec.Code)
	}
	// Unknown action and wrong method on subresource.
	if _, err := vdbms.New().CreateCollection("c", vdbms.Schema{Dim: 2}); err != nil {
		t.Fatal(err)
	}
	srv2db := vdbms.New()
	srv2db.CreateCollection("c", vdbms.Schema{Dim: 2})
	srv2 := New(srv2db)
	rec2, _ := doJSON(t, srv2, "POST", "/collections/c/bogus", map[string]any{})
	if rec2.Code != http.StatusNotFound {
		t.Fatalf("unknown action: %d", rec2.Code)
	}
	rec2, _ = doJSON(t, srv2, "GET", "/collections/c/search", nil)
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Fatalf("wrong method: %d", rec2.Code)
	}
}

func TestBatchSearchEndpoint(t *testing.T) {
	srv := New(vdbms.New())
	rec, _ := doJSON(t, srv, "POST", "/collections", CreateCollectionRequest{
		Name:   "docs",
		Schema: vdbms.Schema{Dim: 4, Attributes: map[string]string{"cat": "int"}},
	})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	ds := dataset.Clustered(60, 4, 3, 0.3, 2)
	for i := 0; i < 60; i++ {
		rec, _ = doJSON(t, srv, "POST", "/collections/docs/vectors", InsertRequest{
			Vector: ds.Row(i), Attrs: map[string]any{"cat": i % 5},
		})
		if rec.Code != http.StatusCreated {
			t.Fatalf("insert %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	rec, _ = doJSON(t, srv, "POST", "/collections/docs/index", IndexRequest{Kind: "hnsw", Opts: map[string]int{"m": 8}})
	if rec.Code != http.StatusCreated {
		t.Fatalf("index: %d %s", rec.Code, rec.Body)
	}

	// One round trip answers three queries; the knobs (k, filter, ef)
	// are shared by every slot.
	rec, out := doJSON(t, srv, "POST", "/collections/docs/batch", SearchBody{
		Vectors: [][]float32{ds.Row(3), ds.Row(9), ds.Row(21)},
		K:       4, Ef: 64,
		Filters: []vdbms.Filter{{Column: "cat", Op: "=", Value: 2.0}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	results := out["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results: %v", out)
	}
	for q, slot := range results {
		hits := slot.([]any)
		if len(hits) == 0 {
			t.Fatalf("query %d: no hits", q)
		}
		prev := -1.0
		for _, h := range hits {
			m := h.(map[string]any)
			if id := int64(m["ID"].(float64)); id%5 != 2 {
				t.Fatalf("query %d: filter violated by id %d", q, id)
			}
			if d := m["Dist"].(float64); d < prev {
				t.Fatalf("query %d: unsorted hits", q)
			} else {
				prev = d
			}
		}
	}

	// An empty batch is a client error, as is a missing collection.
	rec, _ = doJSON(t, srv, "POST", "/collections/docs/batch", SearchBody{K: 2})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, "POST", "/collections/nope/batch", SearchBody{Vectors: [][]float32{ds.Row(0)}, K: 2})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("missing collection: %d", rec.Code)
	}
	// A policy is "" or plan:<kind>; anything else is a client error on
	// both routes.
	for _, policy := range []string{"cost", "rule", "adaptive", "vearch", "weaviate", "euclid", "analyticdb-v", "milvus", "qdrant", "plan:bogus"} {
		rec, _ = doJSON(t, srv, "POST", "/collections/docs/search", SearchBody{Vector: ds.Row(0), K: 2, Policy: policy})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("search policy %q: %d, want 400", policy, rec.Code)
		}
		rec, _ = doJSON(t, srv, "POST", "/collections/docs/batch", SearchBody{Vectors: [][]float32{ds.Row(0)}, K: 2, Policy: policy})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("batch policy %q: %d, want 400", policy, rec.Code)
		}
	}

	// Collection info now reports background build state.
	rec, out = doJSON(t, srv, "GET", "/collections/docs", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("info: %d", rec.Code)
	}
	if _, ok := out["index_building"].(bool); !ok {
		t.Fatalf("info missing index_building: %v", out)
	}
}

func TestSearchQueryTimeout(t *testing.T) {
	db := vdbms.New()
	if _, err := db.CreateCollection("c", vdbms.Schema{Dim: 4}); err != nil {
		t.Fatal(err)
	}
	col, _ := db.Collection("c")
	ds := dataset.Uniform(50, 4, 1)
	for i := 0; i < 50; i++ {
		if _, err := col.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// An already-exhausted budget must surface as a 504, not a 400/500.
	srv := New(db, WithQueryTimeout(time.Nanosecond))
	rec, out := doJSON(t, srv, "POST", "/collections/c/search", SearchBody{Vector: ds.Row(0), K: 3})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out search: %d %v", rec.Code, out)
	}
	// A generous budget behaves normally.
	srv = New(db, WithQueryTimeout(time.Minute))
	rec, out = doJSON(t, srv, "POST", "/collections/c/search", SearchBody{Vector: ds.Row(0), K: 3})
	if rec.Code != http.StatusOK || len(out["Hits"].([]any)) != 3 {
		t.Fatalf("search under budget: %d %v", rec.Code, out)
	}
}

// TestPlanHeaderAndKnobPropagation is the end-to-end audit of search
// parameter propagation: a knob set in the HTTP body must arrive at
// the index probe unchanged, an unset knob must stay unset at every
// layer (never dropped to a different default mid-stack), and the
// X-Vdbms-Plan response header must report exactly what ran. The
// layers crossed: JSON body -> vdbms.SearchRequest -> core.Request ->
// resolveKnobs -> executor.Options -> index.Params.
func TestPlanHeaderAndKnobPropagation(t *testing.T) {
	srv := New(vdbms.New())
	rec, _ := doJSON(t, srv, "POST", "/collections", CreateCollectionRequest{
		Name: "tuned", Schema: vdbms.Schema{Dim: 4},
	})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	ds := dataset.Clustered(400, 4, 3, 0.3, 5)
	for i := 0; i < 400; i++ {
		rec, _ = doJSON(t, srv, "POST", "/collections/tuned/vectors", InsertRequest{Vector: ds.Row(i)})
		if rec.Code != http.StatusCreated {
			t.Fatalf("insert %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	rec, _ = doJSON(t, srv, "POST", "/collections/tuned/index", IndexRequest{Kind: "hnsw", Opts: map[string]int{"m": 8}})
	if rec.Code != http.StatusCreated {
		t.Fatalf("index: %d %s", rec.Code, rec.Body)
	}

	search := func(body SearchBody) (*httptest.ResponseRecorder, string) {
		t.Helper()
		body.Vector, body.K = ds.Row(0), 5
		rec, _ := doJSON(t, srv, "POST", "/collections/tuned/search", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("search %+v: %d %s", body, rec.Code, rec.Body)
		}
		h := rec.Header().Get(PlanHeader)
		if h == "" {
			t.Fatalf("search %+v: no %s header", body, PlanHeader)
		}
		return rec, h
	}

	// Explicit ef survives the whole stack and is reported verbatim.
	if _, h := search(SearchBody{Ef: 64}); !strings.HasSuffix(h, ";ef=64;nprobe=0;source=explicit") {
		t.Fatalf("explicit ef header: %q", h)
	}
	// An explicit nprobe alone leaves ef unset (0) — the zero must not
	// be backfilled from any other layer.
	if _, h := search(SearchBody{NProbe: 2}); !strings.HasSuffix(h, ";ef=0;nprobe=2;source=explicit") {
		t.Fatalf("explicit nprobe header: %q", h)
	}
	// A recall target with a cold tuner resolves to the safe default:
	// the ef ladder maximum.
	if _, h := search(SearchBody{TargetRecall: 0.9}); !strings.HasSuffix(h, ";ef=512;nprobe=0;source=safe_default") {
		t.Fatalf("target header: %q", h)
	}
	// Nothing set: zeros pass through to the index's own defaults.
	if _, h := search(SearchBody{}); !strings.HasSuffix(h, ";ef=0;nprobe=0;source=index_default") {
		t.Fatalf("default header: %q", h)
	}
	// The header names the executed plan, matching the body's Plan.
	rec, h := search(SearchBody{Ef: 32})
	var res vdbms.SearchResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Plan == "" || !strings.HasPrefix(h, res.Plan+";") {
		t.Fatalf("header %q does not lead with body plan %q", h, res.Plan)
	}
	if res.Ef != 32 || res.ParamSource != "explicit" {
		t.Fatalf("body decision: %+v", res)
	}
}
