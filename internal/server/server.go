// Package server exposes the VDBMS over HTTP/JSON — the "simple API"
// query-interface style of Section 2.1 used by native systems, plus a
// /query endpoint accepting the full vql language (SELECT / CREATE
// COLLECTION / CREATE INDEX / INSERT / DELETE) for the SQL-extension
// style.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"vdbms"
	"vdbms/internal/memory"
	"vdbms/internal/obs"
	"vdbms/internal/vql"
)

// TraceHeader, when set to "1" on a search request, asks the server to
// return the query's span tree in the response Trace field.
const TraceHeader = "X-Vdbms-Trace"

// PlanHeader is set on every search response; it reports the plan the
// optimizer executed and the resolved search parameters, e.g.
// "pre_filter;ef=64;nprobe=0;source=tuned". One header read answers
// "what did the planner do" without asking for a full trace.
const PlanHeader = "X-Vdbms-Plan"

// MaxBodyBytes is the largest request body the server reads. Every
// request reaches its handler through http.MaxBytesHandler at this
// limit, and a body that runs past it is answered 413 (Request Entity
// Too Large) instead of being read into memory. At 64 MiB it holds a
// /batch of tens of thousands of 128-float vectors.
const MaxBodyBytes = 64 << 20

// Server wraps a DB with HTTP handlers.
type Server struct {
	db           *vdbms.DB
	mux          *http.ServeMux
	limited      http.Handler // mux behind the MaxBodyBytes limit
	queryTimeout time.Duration
	slowQuery    time.Duration
	logf         func(format string, args ...any)
	mem          *memory.Manager
	// requests holds each route's vdbms_http_requests_total child,
	// bound once at New so a request pays a map read, not a locked
	// labelled lookup.
	requests map[string]*obs.Counter
}

// Option configures a Server.
type Option func(*Server)

// WithQueryTimeout bounds every search with a server-side deadline on
// top of the request context (0 = requests run until the client
// disconnects).
func WithQueryTimeout(d time.Duration) Option {
	return func(s *Server) { s.queryTimeout = d }
}

// WithSlowQueryLog logs any search slower than d, with its span tree,
// and counts it in vdbms_slow_query_total. Tracing is forced on for
// every search so the offending stages are in the log; the trace is
// still stripped from responses that did not ask for it. 0 disables.
func WithSlowQueryLog(d time.Duration) Option {
	return func(s *Server) { s.slowQuery = d }
}

// WithLogf redirects the server's log output (used by tests).
func WithLogf(f func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = f }
}

// WithMemoryManager wires the process memory budget manager into the
// serving path: while the manager sits at the Shed rung, work-carrying
// requests (searches, inserts, queries) are refused with 503 and a
// Retry-After header instead of growing the heap until the kernel
// kills the process. Introspection endpoints (/metrics, /healthz,
// /debug/*) never shed — an operator diagnosing the pressure needs
// them most exactly then. The manager's status is also surfaced under
// "memory" in /debug/stats.
func WithMemoryManager(m *memory.Manager) Option {
	return func(s *Server) { s.mem = m }
}

// New builds the handler set around db.
func New(db *vdbms.DB, opts ...Option) *Server {
	s := &Server{db: db, mux: http.NewServeMux(), logf: log.Printf}
	for _, o := range opts {
		o(s)
	}
	routes := []struct {
		pattern string
		h       http.Handler
	}{
		{"/collections", http.HandlerFunc(s.handleCollections)},
		{"/collections/", http.HandlerFunc(s.handleCollection)},
		{"/query", http.HandlerFunc(s.handleQuery)},
		{"/metrics", obs.MetricsHandler(obs.Default())},
		{"/debug/stats", obs.StatsHandlerExtras(obs.Default(), s.collectionStats)},
		{"/debug/slowlog", obs.SlowLogHandler(obs.DefaultSlowLog())},
		{"/healthz", http.HandlerFunc(s.handleHealthz)},
	}
	s.limited = http.MaxBytesHandler(s.mux, MaxBodyBytes)
	s.requests = make(map[string]*obs.Counter, len(routes))
	for _, rt := range routes {
		s.mux.Handle(rt.pattern, rt.h)
		label := routeLabel(rt.pattern)
		s.requests[label] = obs.HTTPRequests.With(label)
	}
	return s
}

// collectionStats assembles the per-collection online statistics
// section of /debug/stats (row churn, query shapes, selectivity,
// probe cost — see DESIGN.md §11).
func (s *Server) collectionStats() map[string]any {
	cols := map[string]any{}
	for _, name := range s.db.Collections() {
		col, err := s.db.Collection(name)
		if err != nil {
			continue
		}
		cols[name] = col.Stats()
	}
	out := map[string]any{"collections": cols}
	if s.mem != nil {
		out["memory"] = s.mem.Status()
	}
	return out
}

// shed refuses one work-carrying request while the budget manager sits
// at the Shed rung, reporting true after writing the 503. The shed is
// counted only here — where a request is actually refused.
func (s *Server) shed(w http.ResponseWriter) bool {
	if s.mem == nil || !s.mem.ShouldShed() {
		return false
	}
	s.mem.CountShed()
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.mem.RetryAfter.Seconds()+0.5)))
	writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("server over memory budget; retry"))
	return true
}

// handleHealthz reports liveness plus index build state: one line per
// collection with a background build in flight. A building index is
// healthy (queries ride on the previous build), so the status stays
// 200 — the lines exist so operators and probes can see maintenance
// pressure without scraping /metrics.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
	for _, name := range s.db.Collections() {
		col, err := s.db.Collection(name)
		if err != nil {
			continue
		}
		if kind, _, dirty, building := col.IndexStatus(); building {
			fmt.Fprintf(w, "index_build collection=%s kind=%s dirty=%d\n", name, kind, dirty)
		}
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	label := routeLabel(r.URL.Path)
	c := s.requests[label]
	if c == nil {
		c = obs.HTTPRequests.With(label) // a path no route serves
	}
	c.Inc()
	s.limited.ServeHTTP(w, r)
}

// writeDecodeErr answers a request whose body could not be decoded:
// 413 when the body ran past MaxBodyBytes, 400 when it was malformed.
func writeDecodeErr(w http.ResponseWriter, err error) {
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over the %d-byte limit", tooLarge.Limit))
		return
	}
	writeErr(w, http.StatusBadRequest, err)
}

// routeLabel collapses request paths onto their route pattern so the
// per-path request counter keeps a bounded label set (collection names
// must not mint metric series).
func routeLabel(path string) string {
	if strings.HasPrefix(path, "/collections/") {
		return "/collections/*"
	}
	return path
}

// searchCtx derives the per-query context: the request context (which
// ends when the client disconnects) bounded by the server's query
// timeout, when it has one.
func (s *Server) searchCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.queryTimeout > 0 {
		return context.WithTimeout(r.Context(), s.queryTimeout)
	}
	return r.Context(), func() {}
}

// statusClientClosedRequest answers a search whose client went away
// before it finished (nginx's 499): the search was stopped, not failed,
// and the request was not malformed.
const statusClientClosedRequest = 499

// searchErrStatus maps a failed search to an HTTP status: a search the
// server's deadline stopped is a 504, one whose client went away a 499,
// everything else a 400 (malformed request).
func searchErrStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	}
	return http.StatusBadRequest
}

// CreateCollectionRequest is the body of POST /collections.
type CreateCollectionRequest struct {
	Name   string       `json:"name"`
	Schema vdbms.Schema `json:"schema"`
}

func (s *Server) handleCollections(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]any{"collections": s.db.Collections()})
	case http.MethodPost:
		var req CreateCollectionRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeDecodeErr(w, err)
			return
		}
		if _, err := s.db.CreateCollection(req.Name, req.Schema); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"name": req.Name})
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// InsertRequest is the body of POST /collections/{name}/vectors.
type InsertRequest struct {
	Vector []float32      `json:"vector"`
	Attrs  map[string]any `json:"attrs"`
}

// IndexRequest is the body of POST /collections/{name}/index.
type IndexRequest struct {
	Kind string         `json:"kind"`
	Opts map[string]int `json:"opts"`
}

// SearchBody is the body of POST /collections/{name}/search and
// /batch: the engine's own request, whose JSON tags are the wire format.
type SearchBody = vdbms.SearchRequest

func (s *Server) handleCollection(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/collections/")
	name, action, sub := strings.Cut(rest, "/")
	action, _, _ = strings.Cut(action, "/")
	if name == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing collection name"))
		return
	}
	if !sub {
		switch r.Method {
		case http.MethodDelete:
			if err := s.db.DropCollection(name); err != nil {
				writeErr(w, http.StatusNotFound, err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]string{"dropped": name})
		case http.MethodGet:
			col, err := s.db.Collection(name)
			if err != nil {
				writeErr(w, http.StatusNotFound, err)
				return
			}
			kind, covered, dirty, building := col.IndexStatus()
			durable, lastLSN, ckptLSN := col.Durability()
			writeJSON(w, http.StatusOK, map[string]any{
				"name": col.Name(), "dim": col.Dim(), "len": col.Len(),
				"index": kind, "index_covered": covered, "index_dirty": dirty,
				"index_building": building,
				"durable":        durable, "wal_lsn": lastLSN, "checkpoint_lsn": ckptLSN,
				"stats": col.Stats(),
			})
		default:
			writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		}
		return
	}
	col, err := s.db.Collection(name)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	// Every POST action below carries real work (inserts grow the heap,
	// searches and index builds allocate); refuse them all while over
	// budget rather than distinguishing — the client retry is uniform.
	if s.shed(w) {
		return
	}
	switch action {
	case "vectors":
		s.handleInsert(w, r, col)
	case "index":
		var req IndexRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeDecodeErr(w, err)
			return
		}
		if err := col.CreateIndex(req.Kind, req.Opts); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"index": req.Kind})
	case "search":
		s.handleSearch(w, r, col)
	case "batch":
		s.handleBatch(w, r, col)
	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown action %q", action))
	}
}

// handleInsert serves POST /collections/{name}/vectors. Attribute values
// are checked against the schema by Collection.Insert; a mismatch is
// the client's error.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request, col *vdbms.Collection) {
	rb := getReqBuf()
	defer rb.release()
	req := &rb.insert
	if err := rb.decodeInsert(r.Body, req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	id, err := col.Insert(req.Vector, req.Attrs)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rb.writeInsert(w, id)
}

// handleSearch serves POST /collections/{name}/search. The search runs
// on this goroutine under the request's context, bounded by the query
// timeout, and is stopped — not abandoned — when either ends.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request, col *vdbms.Collection) {
	rb := getReqBuf()
	defer rb.release()
	req := &rb.search
	if err := rb.decodeSearch(r.Body, req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	ctx, cancel := s.searchCtx(r)
	defer cancel()
	// Tracing is on when the client asks (X-Vdbms-Trace: 1) or the
	// slow-query log needs span trees to be useful.
	wantTrace := r.Header.Get(TraceHeader) == "1"
	req.Trace = wantTrace || s.slowQuery > 0
	start := time.Now()
	res, err := col.SearchContext(ctx, *req)
	elapsed := time.Since(start)
	if err != nil {
		writeErr(w, searchErrStatus(err), err)
		return
	}
	w.Header()[PlanHeader] = []string{planHeader(&res)}
	if res.Trace != nil {
		// Traced queries compete for a slot among the slowest
		// exemplars retained for /debug/slowlog.
		obs.DefaultSlowLog().Offer(obs.SlowLogEntry{
			Collection:    col.Name(),
			K:             req.K,
			DurationNanos: elapsed.Nanoseconds(),
			When:          start,
			Trace:         res.Trace,
		})
	}
	if s.slowQuery > 0 && elapsed >= s.slowQuery {
		obs.SlowQueries.Inc()
		tree, _ := json.Marshal(res.Trace)
		s.logf("slow query: collection=%s k=%d elapsed=%s trace=%s",
			col.Name(), req.K, elapsed, tree)
	}
	if !wantTrace {
		res.Trace = nil
	}
	rb.writeSearch(w, &res)
}

// handleBatch serves POST /collections/{name}/batch, which answers many
// queries in one round trip. Vectors carries the batch; the remaining
// fields are the shared execution knobs (k, filters, policy, ef,
// nprobe, alpha, rerank_k). Partial failures follow the library
// contract: failed slots are null and "error" names each failing
// query, alongside HTTP 200 for the successes. The batch runs under the
// same context as a search and is answered 499 or 504 when it is
// stopped.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, col *vdbms.Collection) {
	rb := getReqBuf()
	defer rb.release()
	req := &rb.search
	if err := rb.decodeSearch(r.Body, req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	if len(req.Vectors) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("batch search needs vectors"))
		return
	}
	ctx, cancel := s.searchCtx(r)
	defer cancel()
	hits, err := col.SearchBatchContext(ctx, req.Vectors, *req)
	if err != nil && (hits == nil || ctx.Err() != nil) {
		writeErr(w, searchErrStatus(err), err)
		return
	}
	body := map[string]any{"results": hits}
	if err != nil {
		body["error"] = err.Error()
		obs.PartialResponses.Inc()
	}
	rb.writeJSON(w, http.StatusOK, body)
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	Query string `json:"query"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	if s.shed(w) {
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	res, err := vql.Run(s.db, req.Query)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
