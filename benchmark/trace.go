package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vdbms"
	"vdbms/internal/executor"
	"vdbms/internal/filter"
	"vdbms/internal/index"
	"vdbms/internal/planner"
	"vdbms/internal/server"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
	"vdbms/internal/wal"
)

// The traced run times calls into public functions only. The seams the
// vdbms.Collection facade hides are crossed on the benchmark's own
// executor.Env, index and scorer, built over the same rows with the same
// options, so every seam does the same work on the same query.

// span accumulates the time spent inside one seam over the pass.
type span struct {
	total time.Duration
	calls int
}

func (s *span) add(start time.Time) {
	s.total += time.Since(start)
	s.calls++
}

// us is the mean time per call in microseconds.
func (s *span) us() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.total) / float64(s.calls) / float64(time.Microsecond)
}

// layers is the benchmark's own instance of every layer below core.
type layers struct {
	sp     spec
	rows   int
	scorer *vec.Scorer
	ann    index.Index
	attrs  *filter.Table
	env    *executor.Env
}

func buildLayers(f *fixture) (*layers, error) {
	l := &layers{sp: f.spec, rows: f.rows}
	data := f.data.Data[:f.rows*dim]
	var err error
	if l.scorer, err = vec.NewScorer(vec.L2, data, f.rows, dim); err != nil {
		return nil, err
	}
	if f.spec.index != "" {
		if l.ann, err = index.Build(f.spec.index, data, f.rows, dim, vec.L2, f.spec.indexOpts); err != nil {
			return nil, err
		}
	}
	l.attrs = filter.NewTable()
	if _, err := l.attrs.AddColumn("cat", filter.Int64); err != nil {
		return nil, err
	}
	for i := 0; i < f.rows; i++ {
		if err := l.attrs.AppendRow(map[string]filter.Value{"cat": filter.IntV(f.cat[i])}); err != nil {
			return nil, err
		}
	}
	l.env, err = executor.NewEnvScorer(l.scorer, nil, l.ann, l.attrs)
	return l, err
}

func (q *query) preds() []filter.Predicate {
	if q.thresh == 0 {
		return nil
	}
	return []filter.Predicate{{Column: "cat", Op: filter.Lt, Value: filter.IntV(q.thresh)}}
}

func (l *layers) options() executor.Options {
	return executor.Options{Ef: l.sp.ef, NProbe: l.sp.nprobe}
}

// forced is the plan a "plan:..." policy names; core.Collection resolves
// it without calling the planner, and so does this.
func (l *layers) forced() (planner.Plan, bool) {
	if l.sp.policy == "plan:brute_force" {
		return planner.Plan{Kind: planner.BruteForce}, true
	}
	return planner.Plan{}, false
}

// search crosses the executor seam the way core.Collection does.
func (l *layers) search(q *query) ([]topk.Result, error) {
	if plan, ok := l.forced(); ok {
		return l.env.Execute(plan, q.vec, topK, q.preds(), l.options())
	}
	res, _, err := l.env.Search(q.vec, topK, q.preds(), l.options(), l.sp.policy)
	return res, err
}

// probeCall is the one Index.Search call the executor issues for a plan.
type probeCall struct {
	idx    index.Index
	k      int
	params index.Params
}

// probeFor mirrors the executor's plan operators up to their index call.
// bitmap is the pre-filter allowlist, built (and timed) by the caller.
func (l *layers) probeFor(q *query, plan planner.Plan, bitmapSurvivors int, params index.Params) probeCall {
	annOrFlat := index.Index(l.env.Flat)
	if l.ann != nil {
		annOrFlat = l.ann
	}
	preds := q.preds()
	call := probeCall{idx: annOrFlat, k: topK, params: params}
	switch plan.Kind {
	case planner.BruteForce:
		call.idx = l.env.Flat
		if len(preds) > 0 {
			call.params.Filter = l.attrs.FilterFunc(preds)
		}
	case planner.PreFilter:
		if len(preds) > 0 && bitmapSurvivors <= max(16*topK, 256) {
			call.idx = l.env.Flat
		}
	case planner.PostFilter:
		alpha := plan.Alpha
		if alpha <= 0 {
			alpha = 4
		}
		call.k = min(alpha*topK, l.rows)
	case planner.SingleStage:
		if len(preds) > 0 {
			call.params.Filter = l.attrs.FilterFunc(preds)
		}
	}
	return call
}

// scrape reads the server's Prometheus exposition into series -> value.
func scrape(f *fixture) (map[string]float64, error) {
	resp, err := http.Get(f.baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if at := strings.LastIndexByte(line, ' '); at > 0 {
			if v, err := strconv.ParseFloat(line[at+1:], 64); err == nil {
				out[line[:at]] = v
			}
		}
	}
	return out, sc.Err()
}

// stageUS is the time one stage of vdbms_search_stage_seconds took between
// two scrapes, in microseconds per operation of the pass between them.
func stageUS(before, after map[string]float64, stage string, ops int) float64 {
	key := `vdbms_search_stage_seconds_sum{stage="` + stage + `"}`
	return (after[key] - before[key]) * 1e6 / float64(ops)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// recallOf is recall@10 of res against q's ground truth, by distance.
func recallOf(res []topk.Result, q *query, data []float32) float64 {
	good := 0
	for _, r := range res {
		if q.asNear(squaredL2(q.vec, data[r.ID*dim:(r.ID+1)*dim])) {
			good++
		}
	}
	return float64(good) / float64(len(q.truth))
}

// traced is the outcome of a traced run.
type traced struct {
	values   map[string]float64
	calls    int // timed calls made
	findings []string
}

// traceBlock is how many consecutive queries a seam takes before the next
// seam runs. Under load a core runs the whole request path over and over,
// so every layer's code and structures stay warm; switching seams on every
// call would measure each layer cold (the HNSW probe then reads 2.5x its
// time in a loop), and a single block per seam would let drift through.
const traceBlock = 100

// traceSearch sends every query of the pool once through every search
// seam. Seams are interleaved in blocks so that drift over the pass
// cancels, in an order rotated from block to block, and in any one block
// each seam works on different queries (seam s is s*stride queries ahead):
// running one query through the seams back to back would hand each inner
// seam the rows its outer seam had just pulled into cache, and the
// subtraction would credit the outer layer with that.
func traceSearch(f *fixture, qs []query, t *traced) error {
	l, err := buildLayers(f)
	if err != nil {
		return fmt.Errorf("building the benchmark's own layers: %w", err)
	}
	sp := f.spec
	ctx := context.Background()
	c := &client{f: f, hc: newHTTPClient()}
	defer c.hc.CloseIdleConnections()
	post := func(q *query) error {
		resp, err := c.post(f.searchPath(), q.body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, c.buf.Bytes())
		}
		return err
	}

	// Untimed pass: what each query's probe is (plan, allowlist, index
	// call) and how many rows it compares, and that the benchmark's own
	// layers answer as the collection does. Counts repeat exactly.
	_, scanAll := l.forced()
	type probe struct {
		call      probeCall
		prefilter bool
		comps     int
	}
	probes := make([]probe, len(qs))
	var comps int64
	for i := range qs {
		q := &qs[i]
		plan, isForced := l.forced()
		if !isForced {
			if plan, err = l.env.Plan(topK, q.preds(), sp.policy, nil); err != nil {
				return fmt.Errorf("plan seam: %w", err)
			}
		}
		var st index.SearchStats
		params := index.Params{Ef: sp.ef, NProbe: sp.nprobe, Stats: &st}
		p := &probes[i]
		survivors := 0
		if p.prefilter = plan.Kind == planner.PreFilter && q.thresh > 0; p.prefilter {
			bm, err := l.attrs.Bitmap(q.preds())
			if err != nil {
				return fmt.Errorf("bitmap seam: %w", err)
			}
			params.Allow, survivors = bm, bm.Count()
		}
		p.call = l.probeFor(q, plan, survivors, params)
		if _, err := p.call.idx.Search(q.vec, p.call.k, p.call.params); err != nil {
			return fmt.Errorf("probe seam: %w", err)
		}
		p.comps = int(min(st.DistanceComps, int64(f.rows)))
		if scanAll {
			p.comps = f.rows
		}
		p.call.params.Stats = nil
		comps += st.DistanceComps

		own, err := l.search(q)
		if err != nil {
			return fmt.Errorf("executor seam: %w", err)
		}
		res, err := f.col.SearchContext(ctx, q.request(sp))
		if err != nil {
			return fmt.Errorf("core seam: %w", err)
		}
		if len(own) != len(res.Hits) {
			return fmt.Errorf("query %d: executor seam returns %d hits, collection %d", i, len(own), len(res.Hits))
		}
		for j := range own {
			if own[j].ID != res.Hits[j].ID {
				return fmt.Errorf("query %d: the benchmark's own layers answer differently from the collection", i)
			}
		}
	}

	// Untraced single-client pass: the reference for the overhead of
	// tracing, and the only traffic between the two scrapes, so the stage
	// histograms' deltas belong to exactly these queries.
	for i := 0; i < min(len(qs), 100); i++ { // connection warm
		if err := post(&qs[i]); err != nil {
			return err
		}
	}
	before, err := scrape(f)
	if err != nil {
		return err
	}
	var plain span
	for i := range qs {
		start := time.Now()
		if err := post(&qs[i]); err != nil {
			return err
		}
		plain.add(start)
	}
	after, err := scrape(f)
	if err != nil {
		return err
	}

	var netS, handlerS, coreS, execS, probeS, scoreS, planS, bitmapS, topkS, decodeS, encodeS span
	var reqBytes, respBytes int64
	scores := make([]float32, f.rows)
	rng := rand.New(rand.NewSource(7))
	randomIDs := make([]int32, f.rows)
	for i := range randomIDs {
		randomIDs[i] = int32(rng.Intn(f.rows))
	}
	var lastResult vdbms.SearchResult
	seams := []func(qi int) error{
		func(qi int) error { // net: loopback round trip
			start := time.Now()
			err := post(&qs[qi])
			netS.add(start)
			reqBytes += int64(len(qs[qi].body))
			respBytes += int64(c.buf.Len())
			return err
		},
		func(qi int) error { // server: the handler on an in-memory request
			req := httptest.NewRequest(http.MethodPost, f.searchPath(), bytes.NewReader(qs[qi].body))
			rec := httptest.NewRecorder()
			start := time.Now()
			f.srv.ServeHTTP(rec, req)
			handlerS.add(start)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler seam: status %d: %s", rec.Code, rec.Body.Bytes())
			}
			return nil
		},
		func(qi int) error { // core: the collection facade
			sreq := qs[qi].request(sp)
			start := time.Now()
			res, err := f.col.SearchContext(ctx, sreq)
			coreS.add(start)
			lastResult = res
			return err
		},
		func(qi int) error { // executor: plan and execute
			start := time.Now()
			_, err := l.search(&qs[qi])
			execS.add(start)
			return err
		},
		func(qi int) error { // planner, filter and index: the executor's pieces
			q, p := &qs[qi], &probes[qi]
			if _, isForced := l.forced(); !isForced {
				start := time.Now()
				_, err := l.env.Plan(topK, q.preds(), sp.policy, nil)
				planS.add(start)
				if err != nil {
					return err
				}
			}
			if p.prefilter {
				start := time.Now()
				_, err := l.attrs.Bitmap(q.preds())
				bitmapS.add(start)
				if err != nil {
					return err
				}
			}
			start := time.Now()
			_, err := p.call.idx.Search(q.vec, p.call.k, p.call.params)
			probeS.add(start)
			return err
		},
		func(qi int) error { // vec: the scoring the probe did, alone
			bound := l.scorer.Bind(qs[qi].vec)
			m := probes[qi].comps
			start := time.Now()
			if scanAll {
				bound.ScoreBlock(0, m, scores)
			} else {
				// A different stretch of random rows per query: the rows a
				// probe compares are not the ones the last probe left in cache.
				off := qi * 7919 % (f.rows - m + 1)
				bound.ScoreIDs(randomIDs[off:off+m], scores[:m])
			}
			scoreS.add(start)
			return nil
		},
		func(qi int) error { // topk: collecting as many scores as the probe compared
			start := time.Now()
			col := topk.NewCollector(topK)
			for id, d := range scores[:probes[qi].comps] {
				col.Push(int64(id), d)
			}
			_ = col.Results()
			topkS.add(start)
			return nil
		},
		func(qi int) error { // json: request in, response out
			var sb server.SearchBody
			start := time.Now()
			err := json.Unmarshal(qs[qi].body, &sb)
			decodeS.add(start)
			if err != nil {
				return err
			}
			start = time.Now()
			_, err = json.Marshal(lastResult)
			encodeS.add(start)
			return err
		},
	}
	stride := max(len(qs)/len(seams), 1)
	for lo := 0; lo < len(qs); lo += traceBlock {
		for r := range seams {
			s := (lo/traceBlock + r) % len(seams)
			for i := lo; i < min(lo+traceBlock, len(qs)); i++ {
				if err := seams[s]((i + s*stride) % len(qs)); err != nil {
					return err
				}
			}
		}
	}
	n := float64(len(qs))
	t.calls += len(seams) * len(qs)

	// Allocations per query, on requests made beforehand so that only the
	// seam allocates between the two readings.
	reqs := make([]*http.Request, len(qs))
	recs := make([]*httptest.ResponseRecorder, len(qs))
	sreqs := make([]vdbms.SearchRequest, len(qs))
	for i := range qs {
		reqs[i] = httptest.NewRequest(http.MethodPost, f.searchPath(), bytes.NewReader(qs[i].body))
		recs[i] = httptest.NewRecorder()
		sreqs[i] = qs[i].request(sp)
	}
	m0 := mallocs()
	for i := range qs {
		f.srv.ServeHTTP(recs[i], reqs[i])
	}
	m1 := mallocs()
	for i := range qs {
		if _, err := f.col.SearchContext(ctx, sreqs[i]); err != nil {
			return err
		}
	}
	m2 := mallocs()

	v := t.values
	v["net.rtt_us"] = netS.us()
	v["server.handler_us"] = handlerS.us()
	v["core.search_us"] = coreS.us()
	v["executor.search_us"] = execS.us()
	v["index.probe_us"] = probeS.us()
	v["vec.score_us"] = scoreS.us()
	v["net.self_us"] = netS.us() - handlerS.us()
	v["server.self_us"] = handlerS.us() - coreS.us()
	v["core.self_us"] = coreS.us() - execS.us()
	v["executor.self_us"] = execS.us() - probeS.us()
	v["index.self_us"] = probeS.us() - scoreS.us()
	for _, name := range []string{"net.self_us", "server.self_us", "core.self_us", "executor.self_us", "index.self_us"} {
		if v[name] < 0 {
			t.findings = append(t.findings, fmt.Sprintf("%s is negative (%.2f us): the inner seam measured slower than the one around it", name, v[name]))
		}
	}
	v["server.decode_us"] = decodeS.us()
	v["server.encode_us"] = encodeS.us()
	v["server.req_bytes"] = float64(reqBytes) / n
	v["server.resp_bytes"] = float64(respBytes) / n
	v["server.allocs_per_query"] = float64(m1-m0) / n
	v["core.allocs_per_query"] = float64(m2-m1) / n
	// Per query of the pass, so a stage only some plans run weighs in by
	// how often it ran.
	v["planner.plan_us"] = float64(planS.total) / n / float64(time.Microsecond)
	v["filter.bitmap_us"] = float64(bitmapS.total) / n / float64(time.Microsecond)
	v["filter.selectivity"] = 1
	if sp.filtered {
		var below [catRange + 1]int64 // below[t] = loaded rows with cat < t
		for _, c := range f.cat[:f.rows] {
			below[c+1]++
		}
		var survivors int64
		for th := 1; th <= catRange; th++ {
			below[th] += below[th-1]
		}
		for i := range qs {
			survivors += below[qs[i].thresh]
		}
		v["filter.selectivity"] = float64(survivors) / (n * float64(f.rows))
	}
	v["index.comps_per_query"] = float64(comps) / n
	v["index.rows_per_result"] = float64(comps) / n / topK
	if scoreS.total > 0 {
		var scored int64
		for i := range probes {
			scored += int64(probes[i].comps)
		}
		v["vec.rows_per_s"] = float64(scored) / scoreS.total.Seconds()
	}
	v["topk.collect_us"] = topkS.us()

	var stages float64
	for _, stage := range []string{"plan", "filter", "index_probe", "post_filter"} {
		us := stageUS(before, after, stage, len(qs))
		v["obs.stage_"+stage+"_us"] = us
		stages += us
	}
	if execS.us() > 0 {
		ratio := stages / execS.us()
		v["obs.reconcile_ratio"] = ratio
		if ratio < 0.9 || ratio > 1.1 {
			t.findings = append(t.findings, fmt.Sprintf("obs.reconcile_ratio %.3f: the server's stage histograms and the executor seam disagree by more than 10 %%", ratio))
		}
	}
	if plain.us() > 0 {
		v["bench.trace_overhead_pct"] = (netS.us()/plain.us() - 1) * 100
	}

	if sp.name == "ann_search" {
		for _, ef := range []int{16, 64, 256} {
			var efComps int64
			var recall float64
			for i := range qs {
				var st index.SearchStats
				res, err := l.ann.Search(qs[i].vec, topK, index.Params{Ef: ef, Stats: &st})
				if err != nil {
					return err
				}
				efComps += st.DistanceComps
				recall += recallOf(res, &qs[i], f.data.Data)
			}
			v[fmt.Sprintf("index.comps_ef%d", ef)] = float64(efComps) / n
			v[fmt.Sprintf("index.recall_ef%d", ef)] = recall / n
			t.calls += len(qs)
		}
	}
	return nil
}

// traceWrites times an insert at every write seam, interleaved, then an
// update, a delete, a checkpoint and a recovery at the library seam: the
// server has routes for none of those.
func traceWrites(cfg config, f *fixture, t *traced) error {
	n := cfg.traceWrites
	attrs := func(row int) map[string]any { return map[string]any{"cat": f.cat[row]} }
	reserve := len(f.cat) - f.rows
	rowAt := func(i int) int { return f.rows + i%reserve }

	// The same rows in memory, so that insert_nowal differs from insert by
	// the log alone.
	mem := vdbms.New()
	memCol, err := mem.CreateCollection("nowal", vdbms.Schema{Dim: dim, Metric: "l2", Attributes: map[string]string{"cat": "int"}})
	if err != nil {
		return err
	}
	for i := 0; i < f.rows; i++ {
		if _, err := memCol.Insert(f.data.Row(i), attrs(i)); err != nil {
			return err
		}
	}

	c := &client{f: f, hc: newHTTPClient()}
	defer c.hc.CloseIdleConnections()
	before, err := scrape(f)
	if err != nil {
		return err
	}
	var netS, handlerS, insertS, nowalS, walS, updateS, deleteS span
	var acks []ack
	ackOf := func(body []byte, row int) error {
		id, err := parseAck(body)
		acks = append(acks, ack{id: id, row: row})
		return err
	}
	next := 0
	for i := 0; i < n; i++ {
		row := rowAt(next)
		body, err := insertBody(f, row)
		if err != nil {
			return err
		}
		start := time.Now()
		resp, err := c.post(f.insertPath(), body)
		netS.add(start)
		if err != nil || resp.StatusCode/100 != 2 {
			return fmt.Errorf("insert over HTTP failed: %v %s", err, c.buf.Bytes())
		}
		if err := ackOf(c.buf.Bytes(), row); err != nil {
			return err
		}

		row = rowAt(next + 1)
		if body, err = insertBody(f, row); err != nil {
			return err
		}
		req := httptest.NewRequest(http.MethodPost, f.insertPath(), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start = time.Now()
		f.srv.ServeHTTP(rec, req)
		handlerS.add(start)
		if rec.Code/100 != 2 {
			return fmt.Errorf("insert at the handler seam: status %d", rec.Code)
		}
		if err := ackOf(rec.Body.Bytes(), row); err != nil {
			return err
		}

		row = rowAt(next + 2)
		start = time.Now()
		id, err := f.col.Insert(f.data.Row(row), attrs(row))
		insertS.add(start)
		if err != nil {
			return err
		}
		acks = append(acks, ack{id: id, row: row})

		row = rowAt(next + 3)
		start = time.Now()
		_, err = memCol.Insert(f.data.Row(row), attrs(row))
		nowalS.add(start)
		if err != nil {
			return err
		}
		next += 4
	}
	after, err := scrape(f)
	if err != nil {
		return err
	}
	durableInserts := 3 * n
	t.calls += 4 * n
	walBytes := (after["vdbms_wal_append_bytes_total"] - before["vdbms_wal_append_bytes_total"]) / float64(durableInserts)

	// A bare log with records of the same size: what the WAL costs with
	// nothing above it.
	walDir := filepath.Join(cfg.workdir, "scratch-wal")
	defer os.RemoveAll(walDir)
	log, err := wal.Open(walDir, 0, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	payload := make([]byte, max(int(walBytes)-8, 1)) // 8 = the frame header the log adds
	for i := 0; i < n; i++ {
		start := time.Now()
		_, commit, err := log.Append(payload)
		if err == nil {
			err = commit.Wait()
		}
		walS.add(start)
		if err != nil {
			log.Close()
			return err
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	t.calls += n

	rng := rand.New(rand.NewSource(cfg.seed + 9))
	targets := rng.Perm(f.rows)
	m := min(n, f.rows/4)
	for i := 0; i < m; i++ {
		start := time.Now()
		err := f.col.UpdateVector(int64(targets[i]), f.data.Row(rowAt(i)))
		updateS.add(start)
		if err != nil {
			return err
		}
	}
	for i := m; i < 2*m; i++ {
		start := time.Now()
		err := f.col.Delete(int64(targets[i]))
		deleteS.add(start)
		if err != nil {
			return err
		}
	}
	t.calls += 2 * m

	// A checkpoint of everything so far; the background checkpointer may
	// get there first, in which case Checkpoint skips, so write once more
	// and try again.
	v := t.values
	written := `vdbms_checkpoint_total{outcome="written"}`
	for try := 0; ; try++ {
		before, err := scrape(f)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := f.col.Checkpoint(); err != nil {
			return err
		}
		secs := time.Since(start).Seconds()
		after, err := scrape(f)
		if err != nil {
			return err
		}
		if after[written] > before[written] {
			v["core.checkpoint_s"] = secs
			v["core.checkpoint_bytes"] = after["vdbms_checkpoint_last_bytes"]
			break
		}
		if try == 5 {
			return fmt.Errorf("no checkpoint was written in %d attempts", try+1)
		}
		row := rowAt(next)
		next++
		id, err := f.col.Insert(f.data.Row(row), attrs(row))
		if err != nil {
			return err
		}
		acks = append(acks, ack{id: id, row: row})
	}
	t.calls++

	// A tail of log after the checkpoint, so that recovery replays it.
	for i := 0; i < 50; i++ {
		row := rowAt(next)
		next++
		id, err := f.col.Insert(f.data.Row(row), attrs(row))
		if err != nil {
			return err
		}
		acks = append(acks, ack{id: id, row: row})
	}
	f.col.WaitForIndex()
	onDisk, err := dirBytes(f.dir)
	if err != nil {
		return err
	}
	rec, err := recoverCopy(cfg, f, acks)
	if err != nil {
		return err
	}
	t.calls++
	final, err := scrape(f)
	if err != nil {
		return err
	}

	v["net.write_rtt_us"] = netS.us()
	v["server.write_handler_us"] = handlerS.us()
	v["core.insert_us"] = insertS.us()
	v["core.insert_nowal_us"] = nowalS.us()
	v["wal.self_us"] = insertS.us() - nowalS.us()
	v["wal.append_wait_us"] = walS.us()
	v["wal.bytes_per_insert"] = walBytes
	v["wal.write_amp"] = float64(onDisk) / (float64(f.col.Len()) * (dim*4 + 8))
	v["core.update_us"] = updateS.us()
	v["core.delete_us"] = deleteS.us()
	v["core.recover_s"] = rec.seconds
	v["core.recovered_fraction"] = rec.fraction
	v["core.index_builds"] = final["vdbms_index_build_seconds_count"]
	if builds := final["vdbms_index_build_seconds_count"]; builds > 0 {
		v["core.index_build_s"] = final["vdbms_index_build_seconds_sum"] / builds
	}
	v["obs.stage_wal_commit_wait_us"] = stageUS(before, after, "wal_commit_wait", durableInserts)
	return nil
}

// runTraced sets the workload up once and crosses it seam by seam with a
// single client.
func runTraced(cfg config, sp spec) (t *traced, err error) {
	f, err := setUp(cfg, sp, filepath.Join(cfg.workdir, "data-traced"))
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := f.close(); err == nil {
			err = cerr
		}
	}()
	qs, err := makeQueries(cfg, f)
	if err != nil {
		return nil, err
	}
	t = &traced{values: map[string]float64{}}
	if err := traceSearch(f, qs, t); err != nil {
		return nil, err
	}
	if sp.writePct > 0 {
		if err := traceWrites(cfg, f, t); err != nil {
			return nil, err
		}
	}
	return t, nil
}
