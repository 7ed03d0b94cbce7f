package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"vdbms"
	"vdbms/internal/dataset"
	"vdbms/internal/server"
)

// fixture is one loaded collection behind a live HTTP listener, plus the
// benchmark's own copy of everything it loaded, which is what results are
// checked against.
type fixture struct {
	spec spec
	rows int
	data *dataset.Dataset // rows loaded during set-up, then the insert reserve
	cat  []int64          // attribute of every row of data

	dir     string // data directory of a durable fixture
	db      *vdbms.DB
	col     *vdbms.Collection
	srv     *server.Server
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve has returned
	baseURL string

	heapMiB float64 // live heap the loaded collection added
}

func (f *fixture) colName() string {
	if f.spec.durable {
		return "b"
	}
	return "a"
}

func (f *fixture) searchPath() string { return "/collections/" + f.colName() + "/search" }
func (f *fixture) insertPath() string { return "/collections/" + f.colName() + "/vectors" }

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setUp generates the workload's data from the seed, loads it through the
// library (the server has no bulk-load route), builds the index and starts
// the listener. It is everything setup_s times.
func setUp(cfg config, sp spec, dir string) (*fixture, error) {
	f := &fixture{spec: sp, rows: cfg.rows(sp), dir: dir}
	total := f.rows
	if sp.writePct > 0 {
		total += cfg.clients * cfg.reserve
	}
	f.data = dataset.Clustered(total, dim, clusters, 1.0, cfg.seed)
	// The attribute column is the same for every seed. The planner
	// estimates selectivity from a fixed sample of row ids, and at 10 %
	// the estimate sits on the line between brute_force (2.7 ms) and
	// single_stage (0.6 ms): a column drawn from the seed lands on either
	// side, which makes every seed a different workload.
	rng := rand.New(rand.NewSource(1))
	f.cat = make([]int64, total)
	for i := range f.cat {
		f.cat[i] = int64(rng.Intn(catRange))
	}
	base := heapAlloc()

	var err error
	if sp.durable {
		// Bulk load the way an operator would: without an fsync per row
		// (0.25 ms each here, which would be all of setup_s), then a clean
		// Close, whose checkpoint makes the load durable.
		f.db, err = vdbms.Open(dir, vdbms.Durability{Fsync: "never", CheckpointInterval: -1})
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", dir, err)
		}
	} else {
		f.db = vdbms.New()
	}
	f.col, err = f.db.CreateCollection(f.colName(), vdbms.Schema{
		Dim: dim, Metric: "l2", Attributes: map[string]string{"cat": "int"},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < f.rows; i++ {
		id, err := f.col.Insert(f.data.Row(i), map[string]any{"cat": f.cat[i]})
		if err != nil {
			return nil, fmt.Errorf("load row %d: %w", i, err)
		}
		if id != int64(i) {
			return nil, fmt.Errorf("load row %d: got id %d", i, id)
		}
	}
	if sp.durable {
		if err := f.reopenDurable(cfg); err != nil {
			return nil, err
		}
	}
	if sp.index != "" {
		if err := f.col.CreateIndex(sp.index, sp.indexOpts); err != nil {
			return nil, fmt.Errorf("build %s: %w", sp.index, err)
		}
	}
	f.heapMiB = (float64(heapAlloc()) - float64(base)) / (1 << 20)

	f.srv = server.New(f.db, server.WithLogf(func(string, ...any) {}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.baseURL = "http://" + ln.Addr().String()
	f.hs = &http.Server{Handler: f.srv, ErrorLog: log.New(io.Discard, "", 0)}
	f.served = make(chan struct{})
	go func() {
		defer close(f.served)
		_ = f.hs.Serve(ln) // always http.ErrServerClosed after close()
	}()
	return f, nil
}

// reopenDurable closes the bulk-loaded database and opens it the way the
// run uses it: fsync on every commit, background checkpoints. Recovery
// maps the checkpoint in place of the heap; the rows are brought back to
// the heap here, where the first insert would bring them anyway, so that
// heap_mib is the run's.
func (f *fixture) reopenDurable(cfg config) error {
	err := f.db.Close()
	f.db, f.col = nil, nil
	if err != nil {
		return fmt.Errorf("close after load: %w", err)
	}
	f.db, err = vdbms.Open(f.dir, vdbms.Durability{Fsync: "always", CheckpointInterval: cfg.checkpointEvery})
	if err != nil {
		return fmt.Errorf("reopen %s: %w", f.dir, err)
	}
	if f.col, err = f.db.Collection(f.colName()); err != nil {
		return err
	}
	if got := f.col.Len(); got != f.rows {
		return fmt.Errorf("reopened collection holds %d rows, loaded %d", got, f.rows)
	}
	return f.col.PromoteToHeap()
}

// close stops the listener, waits for it, closes the database and removes
// a durable fixture's directory.
func (f *fixture) close() error {
	var err error
	if f.hs != nil {
		_ = f.hs.Close() // the listener error, if any, is the one Serve already returned
		<-f.served
	}
	if f.db != nil {
		err = f.db.Close()
	}
	if f.spec.durable {
		if rerr := os.RemoveAll(f.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// query is one entry of the pool: the request as the server receives it
// and the answer the benchmark's own brute force gives.
type query struct {
	vec    []float32
	thresh int64  // predicate cat < thresh; 0 = none
	body   []byte // pre-encoded request
	// truth holds the exact top-k ids (ties by id) over the rows loaded
	// during set-up that satisfy the predicate, and truthDist their
	// distances.
	truth     []int64
	truthDist []float32
}

func (q *query) filters() []vdbms.Filter {
	if q.thresh == 0 {
		return nil
	}
	return []vdbms.Filter{{Column: "cat", Op: "<", Value: q.thresh}}
}

func (q *query) request(sp spec) vdbms.SearchRequest {
	return vdbms.SearchRequest{
		Vector: q.vec, K: topK, Filters: q.filters(),
		Policy: sp.policy, Ef: sp.ef, NProbe: sp.nprobe,
	}
}

// selectivities of a filtered query's predicate, in rows of catRange.
var selectivities = []int64{1, 10, 50}

// makeQueries draws the pool from the seed, encodes each request body the
// way a Go client would, and computes ground truth over the rows loaded
// during set-up.
func makeQueries(cfg config, f *fixture) ([]query, error) {
	sp := f.spec
	n := cfg.pool(sp)
	base := dataset.Dataset{Dim: dim, Count: f.rows, Data: f.data.Data[:f.rows*dim]}
	vecs := base.Queries(n, 0.5, cfg.seed+2)
	rng := rand.New(rand.NewSource(cfg.seed + 3))
	qs := make([]query, n)
	for i := range qs {
		q := &qs[i]
		q.vec = vecs[i]
		if sp.filtered {
			q.thresh = selectivities[rng.Intn(len(selectivities))]
		}
		body, err := json.Marshal(server.SearchBody{
			Vector: q.vec, K: topK, Filters: q.filters(),
			Policy: sp.policy, Ef: sp.ef, NProbe: sp.nprobe,
		})
		if err != nil {
			return nil, err
		}
		q.body = body
	}
	groundTruth(qs, f.data.Data, f.cat, f.rows)
	return qs, nil
}

// squaredL2 is the benchmark's own distance: it shares no code with the
// kernels it checks.
func squaredL2(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0, d1, d2, d3 := a[i]-b[i], a[i+1]-b[i+1], a[i+2]-b[i+2], a[i+3]-b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// groundTruth fills truth and truthDist of every query by brute force over
// rows [0, n) of data, one goroutine per CPU.
func groundTruth(qs []query, data []float32, cat []int64, n int) {
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += workers {
				qs[i].truth, qs[i].truthDist = exactTopK(qs[i].vec, qs[i].thresh, data, cat, n)
			}
		}(w)
	}
	wg.Wait()
}

// exactTopK returns the topK nearest of rows [0, n) that satisfy
// cat < thresh (thresh 0 admits every row), ordered by (distance, id).
func exactTopK(q []float32, thresh int64, data []float32, cat []int64, n int) ([]int64, []float32) {
	ids := make([]int64, 0, topK+1)
	dists := make([]float32, 0, topK+1)
	for id := 0; id < n; id++ {
		if thresh > 0 && cat[id] >= thresh {
			continue
		}
		d := squaredL2(q, data[id*dim:(id+1)*dim])
		if len(ids) == topK && d >= dists[topK-1] {
			continue // ids ascend, so an equal distance loses the tie
		}
		at := sort.Search(len(dists), func(i int) bool { return dists[i] > d })
		ids = append(ids, 0)
		dists = append(dists, 0)
		copy(ids[at+1:], ids[at:])
		copy(dists[at+1:], dists[at:])
		ids[at], dists[at] = int64(id), d
		if len(ids) > topK {
			ids, dists = ids[:topK], dists[:topK]
		}
	}
	return ids, dists
}

// insertBody encodes row as the body of POST .../vectors.
func insertBody(f *fixture, row int) ([]byte, error) {
	return json.Marshal(server.InsertRequest{
		Vector: f.data.Row(row),
		Attrs:  map[string]any{"cat": f.cat[row]},
	})
}

// timedSetUps runs set-up at least cfg.setups times, closing all but the
// last, and returns the last fixture, the median set-up time in seconds and
// how many set-ups that is the median of.
func timedSetUps(cfg config, sp spec) (*fixture, float64, int, error) {
	var times []float64
	var total time.Duration
	var f *fixture
	for i := 0; i < cfg.setups || (total < cfg.setupBudget && i < 10*cfg.setups); i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, 0, 0, err
			}
		}
		start := time.Now()
		var err error
		f, err = setUp(cfg, sp, filepath.Join(cfg.workdir, fmt.Sprintf("data-%d", i)))
		if err != nil {
			return nil, 0, 0, err
		}
		took := time.Since(start)
		total += took
		times = append(times, took.Seconds())
	}
	return f, median(times), len(times), nil
}
