package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vdbms"
	"vdbms/internal/dataset"
)

// TestSearchResponseMatchesEncodingJSON: the hand-appended search
// response is byte for byte what json.Encoder writes, and whatever the
// appender declines (a trace, a string needing escapes, a distance
// that is not finite) takes the encoding/json path.
func TestSearchResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dists := []float32{0, float32(math.Copysign(0, -1)), 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 3.4e38,
		math.SmallestNonzeroFloat32, 0.1, 123456.79, -2.5}
	for i := 0; i < 2000; i++ {
		dists = append(dists, math.Float32frombits(rng.Uint32()))
	}
	var results []vdbms.SearchResult
	for i := 0; i < len(dists); i += 7 {
		res := vdbms.SearchResult{Plan: "single_stage", Ef: rng.Intn(600) - 1, NProbe: rng.Intn(40), ParamSource: "explicit"}
		for _, d := range dists[i:min(i+7, len(dists))] {
			res.Hits = append(res.Hits, vdbms.Hit{ID: rng.Int63n(1 << 40), Dist: d})
		}
		results = append(results, res)
	}
	results = append(results,
		vdbms.SearchResult{Plan: "brute_force"},
		vdbms.SearchResult{Hits: []vdbms.Hit{}, Plan: "plan<&>\"x\"", ParamSource: "é "},
		vdbms.SearchResult{Hits: []vdbms.Hit{{ID: 1, Dist: 2}}, Trace: &vdbms.TraceSpan{Stage: "search", DurationNanos: 5}},
	)
	for _, res := range results {
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(res)
		rec := httptest.NewRecorder()
		rb := getReqBuf()
		rb.writeSearch(rec, &res)
		rb.release()
		if wantErr != nil {
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("%+v: status %d, want 500 for %v", res, rec.Code, wantErr)
			}
			continue
		}
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("status %d\n got %s\nwant %s", rec.Code, rec.Body.Bytes(), want.Bytes())
		}
	}
}

// ownershipServer is a collection "s" of 2 000 rows under an HNSW
// index for searches and an empty collection "w" for inserts, both
// 16-d, behind one Server.
func ownershipServer(t testing.TB) (*Server, *vdbms.Collection, *vdbms.Collection, *dataset.Dataset) {
	t.Helper()
	db := vdbms.New()
	s, err := db.CreateCollection("s", vdbms.Schema{Dim: 16})
	if err != nil {
		t.Fatal(err)
	}
	w, err := db.CreateCollection("w", vdbms.Schema{Dim: 16, Attributes: map[string]string{"cat": "int"}})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(4000, 16, 8, 0.5, 8)
	for i := 0; i < 2000; i++ {
		if _, err := s.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CreateIndex("hnsw", map[string]int{"m": 8}); err != nil {
		t.Fatal(err)
	}
	return New(db), s, w, ds
}

// TestPooledVectorsAreNotRetained: eight goroutines search and insert
// over HTTP while the server overwrites every pooled vector with NaN
// once its response is written. Every hit list must equal the direct
// library call's and every stored row the vector that was sent: had
// anything kept a decoded vector past its response, a NaN would show.
func TestPooledVectorsAreNotRetained(t *testing.T) {
	poisonReleased = true
	defer func() { poisonReleased = false }()
	srv, s, w, ds := ownershipServer(t)
	const workers, ops = 8, 150
	type ack struct{ id, row int64 }
	acks := make([][]ack, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				row := 2000 + g*ops + i
				if i%2 == 0 {
					q := ds.Row(row)
					want, err := s.Search(vdbms.SearchRequest{Vector: q, K: 10, Ef: 64})
					if err != nil {
						errs <- err
						return
					}
					rec, _ := doJSON(t, srv, "POST", "/collections/s/search", SearchBody{Vector: q, K: 10, Ef: 64})
					var got vdbms.SearchResult
					if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK {
						errs <- fmt.Errorf("search: %d %s", rec.Code, rec.Body)
						return
					}
					if fmt.Sprint(got.Hits) != fmt.Sprint(want.Hits) {
						errs <- fmt.Errorf("row %d: HTTP hits %v, library %v", row, got.Hits, want.Hits)
						return
					}
					continue
				}
				rec, out := doJSON(t, srv, "POST", "/collections/w/vectors", InsertRequest{
					Vector: ds.Row(row), Attrs: map[string]any{"cat": row},
				})
				if rec.Code != http.StatusCreated {
					errs <- fmt.Errorf("insert: %d %s", rec.Code, rec.Body)
					return
				}
				acks[g] = append(acks[g], ack{int64(out["id"].(float64)), int64(row)})
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, as := range acks {
		for _, a := range as {
			v, attrs, err := w.Get(a.id)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(v) != fmt.Sprint(ds.Row(int(a.row))) || attrs["cat"] != a.row {
				t.Fatalf("id %d: stored %v %v, sent row %d %v", a.id, v, attrs, a.row, ds.Row(int(a.row)))
			}
		}
	}
}

// TestStoppedSearchStatus: a search or batch the server's deadline
// stops is a 504, one whose client has gone is a 499 — neither is the
// 400 of a malformed request, nor a 200 carrying a per-query error.
func TestStoppedSearchStatus(t *testing.T) {
	srv, _, _, ds := ownershipServer(t)
	timed := New(srv.db, WithQueryTimeout(time.Nanosecond))
	for _, c := range []struct {
		route string
		body  SearchBody
	}{
		{"search", SearchBody{Vector: ds.Row(0), K: 5}},
		{"batch", SearchBody{Vectors: [][]float32{ds.Row(0), ds.Row(1)}, K: 5}},
	} {
		body, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		path := "/collections/s/" + c.route
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)).WithContext(ctx))
		if rec.Code != statusClientClosedRequest {
			t.Fatalf("%s, client gone: %d %s, want 499", c.route, rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		timed.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s, deadline: %d %s, want 504", c.route, rec.Code, rec.Body)
		}
	}
}

// TestInsertRouteChecksAttributeTypes: over HTTP every number arrives as
// a float64; an integral one stores in an int column, a fractional one
// or a string is a 400 naming the mismatch (the server used to
// truncate 2.5 to 2).
func TestInsertRouteChecksAttributeTypes(t *testing.T) {
	db := vdbms.New()
	if _, err := db.CreateCollection("t", vdbms.Schema{Dim: 2, Attributes: map[string]string{"cat": "int"}}); err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	for _, c := range []struct {
		body string
		code int
	}{
		{`{"vector":[1,2],"attrs":{"cat":7}}`, http.StatusCreated},
		{`{"vector":[1,2],"attrs":{"cat":7.0}}`, http.StatusCreated},
		{`{"vector":[1,2],"attrs":{"cat":2.5}}`, http.StatusBadRequest},
		{`{"vector":[1,2],"attrs":{"cat":"seven"}}`, http.StatusBadRequest},
		{`{"vector":[1,2],"attrs":{"cat":null}}`, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/collections/t/vectors", strings.NewReader(c.body)))
		if rec.Code != c.code || c.code != http.StatusCreated && !strings.Contains(rec.Body.String(), "does not match column type") {
			t.Fatalf("%s: %d %s, want %d", c.body, rec.Code, rec.Body, c.code)
		}
	}
	col, err := db.Collection("t")
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 2; id++ {
		if _, attrs, err := col.Get(id); err != nil || attrs["cat"] != int64(7) {
			t.Fatalf("row %d: cat %v (%T), err %v; want 7", id, attrs["cat"], attrs["cat"], err)
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(`{"query":"INSERT INTO t VECTOR [1, 2] SET cat = 2.5"}`)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "does not match column type") {
		t.Fatalf("VQL insert of 2.5 into an int column: %d %s", rec.Code, rec.Body)
	}
	if col.Len() != 2 {
		t.Fatalf("%d rows stored, want the 2 accepted", col.Len())
	}
}

// TestWindowedSearchRoute: a range or paged query reaches /search as
// two more body fields, decoded by encoding/json; one the engine cannot
// serve is a 400 naming ErrWindow, and a windowed /batch is refused.
func TestWindowedSearchRoute(t *testing.T) {
	srv, col, _, ds := ownershipServer(t)
	q, err := json.Marshal(ds.Row(3))
	if err != nil {
		t.Fatal(err)
	}
	vec := string(q)
	post := func(route, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/collections/s/"+route, strings.NewReader(body)))
		return rec
	}
	for _, c := range []struct{ name, route, body string }{
		{"negative radius", "search", `{"vector":` + vec + `,"k":5,"radius":-1}`},
		{"infinite radius", "search", `{"vector":` + vec + `,"k":5,"radius":1e39}`},
		{"negative cursor id", "search", `{"vector":` + vec + `,"k":5,"after":{"ID":-1,"Dist":0}}`},
		{"radius under single_stage", "search", `{"vector":` + vec + `,"k":5,"radius":4,"policy":"plan:single_stage"}`},
		{"radius under post_filter", "search", `{"vector":` + vec + `,"k":5,"radius":4,"policy":"plan:post_filter"}`},
		{"multi-vector radius", "search", `{"vectors":[` + vec + `],"k":5,"radius":4}`},
		{"multi-vector cursor", "search", `{"vectors":[` + vec + `],"k":5,"after":{"ID":1,"Dist":0}}`},
		{"batch radius", "batch", `{"vectors":[` + vec + `],"k":5,"radius":4}`},
		{"batch cursor", "batch", `{"vectors":[` + vec + `],"k":5,"after":{"ID":1,"Dist":0}}`},
	} {
		// 1e39 overflows a float32: encoding/json refuses it first.
		rec := post(c.route, c.body)
		if rec.Code != http.StatusBadRequest || c.name != "infinite radius" && !strings.Contains(rec.Body.String(), vdbms.ErrWindow.Error()) {
			t.Fatalf("%s: %d %s, want 400 naming ErrWindow", c.name, rec.Code, rec.Body)
		}
	}

	// Served: the range under brute_force, and the page after it.
	want, err := col.Search(vdbms.SearchRequest{Vector: ds.Row(3), K: 20, Policy: "plan:brute_force"})
	if err != nil {
		t.Fatal(err)
	}
	radius := want.Hits[9].Dist
	var page struct {
		Hits []vdbms.Hit
		Plan string
	}
	rec := post("search", fmt.Sprintf(`{"vector":%s,"k":2000,"radius":%v}`, vec, radius))
	if err := json.Unmarshal(rec.Body.Bytes(), &page); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("range: %d %s %v", rec.Code, rec.Body, err)
	}
	if page.Plan != "brute_force" || fmt.Sprint(page.Hits) != fmt.Sprint(want.Hits[:10]) {
		t.Fatalf("range plan %s hits %v, want the first 10 of %v", page.Plan, page.Hits, want.Hits)
	}
	after, err := json.Marshal(page.Hits[9])
	if err != nil {
		t.Fatal(err)
	}
	rec = post("search", fmt.Sprintf(`{"vector":%s,"k":10,"policy":"plan:brute_force","after":%s}`, vec, after))
	if err := json.Unmarshal(rec.Body.Bytes(), &page); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("page: %d %s %v", rec.Code, rec.Body, err)
	}
	if fmt.Sprint(page.Hits) != fmt.Sprint(want.Hits[10:]) {
		t.Fatalf("page after %s: %v, want %v", after, page.Hits, want.Hits[10:])
	}
}

var raceEnabled bool // set by race_test.go

// leanWriter is a ResponseWriter that allocates nothing per response, so
// an allocation count of ServeHTTP is the server's own.
type leanWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *leanWriter) Header() http.Header         { return w.h }
func (w *leanWriter) WriteHeader(status int)      { w.status = status }
func (w *leanWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestServeSearchAllocations bounds the allocations of one
// ann_search-shaped request through Server.ServeHTTP: decode, plan,
// HNSW probe and response together.
func TestServeSearchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	srv, _, _, ds := ownershipServer(t)
	body, err := json.Marshal(SearchBody{Vector: ds.Row(7), K: 10, Ef: 64})
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/collections/s/search", io.NopCloser(rd))
	w := &leanWriter{h: http.Header{}}
	runtime.GC() // a collection mid-run would empty the pools
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		clear(w.h)
		srv.ServeHTTP(w, req)
	})
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
	if allocs > 20 {
		t.Fatalf("%.1f allocations per search request, want <= 20", allocs)
	}
	t.Logf("%.1f allocations per search request", allocs)
}

// BenchmarkServeSearch is an ann_search-shaped request over a real
// loopback connection: client, net/http, server and engine.
func BenchmarkServeSearch(b *testing.B) {
	srv, _, _, ds := ownershipServer(b)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	body, err := json.Marshal(SearchBody{Vector: ds.Row(7), K: 10, Ef: 64})
	if err != nil {
		b.Fatal(err)
	}
	client := hs.Client()
	url := hs.URL + "/collections/s/search"
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %v", resp.StatusCode, err)
		}
	}
}
