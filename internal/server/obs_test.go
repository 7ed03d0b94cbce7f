package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"vdbms"
	"vdbms/internal/dataset"
	"vdbms/internal/obs"
)

// scrapeMetric fetches /metrics from h and returns the value of the
// exactly-named sample (family plus rendered labels), with ok=false
// when the series is absent.
func scrapeMetric(t *testing.T, h http.Handler, name string) (float64, bool) {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || line[:sp] != name {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		return v, true
	}
	return 0, false
}

func searchServer(t *testing.T) (*Server, *dataset.Dataset) {
	t.Helper()
	db := vdbms.New()
	col, err := db.CreateCollection("c", vdbms.Schema{Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Uniform(200, 8, 11)
	for i := 0; i < ds.Count; i++ {
		if _, err := col.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	return New(db), ds
}

func TestMetricsEndpointAfterSearch(t *testing.T) {
	srv, ds := searchServer(t)
	before, _ := scrapeMetric(t, srv, "vdbms_search_total")
	countBefore, _ := scrapeMetric(t, srv, `vdbms_search_latency_seconds_count{collection="c"}`)

	for i := 0; i < 3; i++ {
		rec, _ := doJSON(t, srv, "POST", "/collections/c/search", SearchBody{Vector: ds.Row(i), K: 5})
		if rec.Code != http.StatusOK {
			t.Fatalf("search: %d %s", rec.Code, rec.Body)
		}
	}

	// Counter monotonicity: exactly the three searches were added.
	after, ok := scrapeMetric(t, srv, "vdbms_search_total")
	if !ok || after != before+3 {
		t.Fatalf("vdbms_search_total = %v (before %v), want +3", after, before)
	}
	// Histogram invariants: _count advanced with the searches and the
	// +Inf bucket equals _count (every observation lands somewhere).
	count, ok := scrapeMetric(t, srv, `vdbms_search_latency_seconds_count{collection="c"}`)
	if !ok || count != countBefore+3 {
		t.Fatalf("latency _count = %v (before %v), want +3", count, countBefore)
	}
	inf, ok := scrapeMetric(t, srv, `vdbms_search_latency_seconds_bucket{collection="c",le="+Inf"}`)
	if !ok || inf != count {
		t.Fatalf("+Inf bucket = %v, want _count %v", inf, count)
	}
	// Per-index probe attribution for the flat scan that served the
	// unindexed collection.
	if v, ok := scrapeMetric(t, srv, `vdbms_index_probe_total{index="flat"}`); !ok || v < 3 {
		t.Fatalf(`vdbms_index_probe_total{index="flat"} = %v, want >= 3`, v)
	}
}

func TestDebugStats(t *testing.T) {
	srv, _ := searchServer(t)
	rec, out := doJSON(t, srv, "GET", "/debug/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/stats: %d", rec.Code)
	}
	for _, key := range []string{"counters", "histograms", "runtime"} {
		if _, ok := out[key]; !ok {
			t.Fatalf("/debug/stats missing %q: %v", key, out)
		}
	}
	if g := out["runtime"].(map[string]any)["goroutines"].(float64); g < 1 {
		t.Fatalf("goroutines = %v", g)
	}
}

func TestHealthzContentType(t *testing.T) {
	srv, _ := searchServer(t)
	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("healthz Content-Type = %q", ct)
	}
}

// traceSearch POSTs a search with the trace header set and returns the
// decoded body.
func traceSearch(t *testing.T, h http.Handler, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, &buf)
	req.Header.Set(TraceHeader, "1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := map[string]any{}
	if rec.Body.Len() > 0 {
		_ = json.Unmarshal(rec.Body.Bytes(), &out)
	}
	return rec, out
}

// sumChildNanos adds up the duration_ns of a span's children.
func sumChildNanos(span map[string]any) float64 {
	total := 0.0
	children, _ := span["children"].([]any)
	for _, c := range children {
		total += c.(map[string]any)["duration_ns"].(float64)
	}
	return total
}

func TestSearchTraceHeader(t *testing.T) {
	srv, ds := searchServer(t)

	// Without the header the response has no trace.
	rec, out := doJSON(t, srv, "POST", "/collections/c/search", SearchBody{Vector: ds.Row(0), K: 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body)
	}
	if _, present := out["Trace"]; present {
		t.Fatal("untraced search leaked a Trace field")
	}

	start := time.Now()
	rec, out = traceSearch(t, srv, "/collections/c/search", SearchBody{Vector: ds.Row(0), K: 5})
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("traced search: %d %s", rec.Code, rec.Body)
	}
	root, ok := out["Trace"].(map[string]any)
	if !ok {
		t.Fatalf("no Trace in traced response: %v", out)
	}
	if root["stage"].(string) != "search" {
		t.Fatalf("root stage = %v", root["stage"])
	}
	rootNanos := root["duration_ns"].(float64)
	if rootNanos <= 0 {
		t.Fatal("root span has no duration")
	}
	// The acceptance invariant: stage durations nest — children sum to
	// no more than the root, and the root is bounded by the observed
	// wall time of the whole HTTP call.
	if kids := sumChildNanos(root); kids > rootNanos {
		t.Fatalf("child spans (%v ns) exceed root (%v ns)", kids, rootNanos)
	}
	if rootNanos > float64(elapsed.Nanoseconds()) {
		t.Fatalf("root span (%v ns) exceeds request wall time (%v)", rootNanos, elapsed)
	}
	// The pipeline stages are present.
	stages := map[string]bool{}
	for _, c := range root["children"].([]any) {
		stages[c.(map[string]any)["stage"].(string)] = true
	}
	for _, want := range []string{"plan", "index_probe"} {
		if !stages[want] {
			t.Fatalf("stage %q missing from trace: %v", want, stages)
		}
	}
}

func TestSlowQueryLog(t *testing.T) {
	db := vdbms.New()
	col, err := db.CreateCollection("c", vdbms.Schema{Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Uniform(100, 8, 13)
	for i := 0; i < ds.Count; i++ {
		if _, err := col.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	var logged []string
	srv := New(db,
		WithSlowQueryLog(time.Nanosecond), // every query is "slow"
		WithLogf(func(format string, args ...any) {
			logged = append(logged, fmt.Sprintf(format, args...))
		}))
	before := obs.SlowQueries.Value()

	rec, out := doJSON(t, srv, "POST", "/collections/c/search", SearchBody{Vector: ds.Row(0), K: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body)
	}
	if len(logged) != 1 {
		t.Fatalf("slow-query log lines = %d, want 1", len(logged))
	}
	if !strings.Contains(logged[0], "slow query") || !strings.Contains(logged[0], `"stage":"search"`) {
		t.Fatalf("log line missing span tree: %q", logged[0])
	}
	if got := obs.SlowQueries.Value(); got != before+1 {
		t.Fatalf("vdbms_slow_query_total = %d, want %d", got, before+1)
	}
	// The forced trace is server-side only: the client did not ask.
	if _, present := out["Trace"]; present {
		t.Fatal("slow-query tracing leaked into the response")
	}
}
