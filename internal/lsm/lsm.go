// Package lsm implements out-of-place updates (Section 2.3(3)): data-
// dependent ANN indexes are expensive to update in place, so writes
// land in an unindexed memtable that is periodically sealed into an
// immutable indexed segment; deletes and upserts are recorded as
// generation bumps and resolved at read time; compaction merges
// segments and drops dead rows. Search fans out over the memtable
// (brute force) and every segment index and merges the top-k — the
// LSM-style structure the paper attributes to Milvus and Manu.
package lsm

import (
	"fmt"
	"sync"

	"vdbms/internal/index"
	"vdbms/internal/index/hnsw"
	"vdbms/internal/obs"
	"vdbms/internal/pool"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// IndexBuilder builds the per-segment ANN index when a memtable is
// sealed.
type IndexBuilder func(data []float32, n, d int) (index.Index, error)

// Config controls the collection.
type Config struct {
	Dim          int
	MemtableSize int // rows before auto-flush; default 1024
	MaxSegments  int // segments before auto-compaction; default 8
	Metric       vec.Metric
	Builder      IndexBuilder // default: small HNSW
	// Parallelism is the intra-query worker count for Search: the
	// memtable scan and each sealed segment probe are independent tasks
	// fanned over the shared pool. 0 selects the pool width
	// (GOMAXPROCS), 1 forces the serial visit order. Results are
	// identical at every setting.
	Parallelism int
}

// row identifies one stored (id, generation) version of a vector.
type row struct {
	id  int64
	gen uint64
}

// segment is an immutable run of sealed rows. idx is nil between the
// seal and the completion of its off-lock index build; searches serve
// such segments by exact scan (seg.sc) until the index installs.
type segment struct {
	data []float32
	rows []row
	idx  index.Index
	sc   *vec.Scorer // block-scores the sealed rows (exact scans)
}

// Collection is an updatable vector collection with LSM-style
// out-of-place maintenance. All methods are safe for concurrent use.
//
// Locking: mu protects the row data and is held only for short
// operations — appends, map updates, the read-side of searches, and
// the O(rows) seal/merge copies. Segment index builds, the expensive
// part of maintenance, run under maint alone: maint serializes flush
// and compaction (single-flight) and is always acquired before mu,
// never while holding it, so builds block neither searches nor
// writes. A writer whose Upsert fills the memtable does wait for the
// seal-and-build it triggered (keeping flush accounting deterministic
// for callers); everyone else proceeds.
type Collection struct {
	// maint serializes maintenance (flush, compaction). Lock order:
	// maint before mu; writers that trigger maintenance release mu
	// first.
	maint sync.Mutex

	mu  sync.RWMutex
	cfg Config
	// memSc block-scores the memtable; its cached per-row state (cosine
	// norms) is extended incrementally on every Upsert and reset when
	// the memtable is sealed, so no search pays a norm recompute.
	memSc    *vec.Scorer
	memData  []float32
	memRows  []row
	segments []*segment
	// latest maps id -> current generation; gen 0 means deleted or
	// never present.
	latest  map[int64]uint64
	nextGen uint64
	live    int
	flushes int
	// compactions counts how many compaction runs completed.
	compactions int
}

// New creates an empty collection.
func New(cfg Config) (*Collection, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("lsm: dimension must be positive")
	}
	if cfg.MemtableSize <= 0 {
		cfg.MemtableSize = 1024
	}
	if cfg.MaxSegments <= 0 {
		cfg.MaxSegments = 8
	}
	if cfg.Builder == nil {
		// The default segment index searches under the collection's own
		// metric, matching the memtable scan.
		metric := cfg.Metric
		cfg.Builder = func(data []float32, n, d int) (index.Index, error) {
			return hnsw.Build(data, n, d, hnsw.Config{M: 8, Seed: 1, Metric: metric})
		}
	}
	memSc, err := vec.NewScorer(cfg.Metric, nil, 0, cfg.Dim)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	return &Collection{
		cfg:    cfg,
		memSc:  memSc,
		latest: map[int64]uint64{},
	}, nil
}

// Len returns the number of live (visible) vectors.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.live
}

// Segments returns the sealed segment count.
func (c *Collection) Segments() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.segments)
}

// Flushes returns how many memtable seals have happened.
func (c *Collection) Flushes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.flushes
}

// Compactions returns how many compaction runs completed.
func (c *Collection) Compactions() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.compactions
}

// Upsert inserts or replaces the vector stored under id.
func (c *Collection) Upsert(id int64, v []float32) error {
	if len(v) != c.cfg.Dim {
		return fmt.Errorf("lsm: vector dim %d, collection dim %d", len(v), c.cfg.Dim)
	}
	c.mu.Lock()
	c.nextGen++
	if c.latest[id] == 0 {
		c.live++
	}
	c.latest[id] = c.nextGen
	c.memData = append(c.memData, v...)
	c.memRows = append(c.memRows, row{id: id, gen: c.nextGen})
	c.memSc.Extend(c.memData, len(c.memRows))
	full := len(c.memRows) >= c.cfg.MemtableSize
	c.mu.Unlock()
	if full {
		// Seal outside mu so the index build never runs under the data
		// lock (lock order: maint then mu).
		return c.Flush()
	}
	return nil
}

// Delete hides id from future searches. Deleting an absent id is a
// no-op returning false.
func (c *Collection) Delete(id int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.latest[id] == 0 {
		return false
	}
	c.latest[id] = 0
	c.live--
	return true
}

// Get returns the current vector for id.
func (c *Collection) Get(id int64) ([]float32, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	gen := c.latest[id]
	if gen == 0 {
		return nil, false
	}
	// Memtable first (newer), newest rows last.
	for i := len(c.memRows) - 1; i >= 0; i-- {
		if c.memRows[i].id == id && c.memRows[i].gen == gen {
			out := make([]float32, c.cfg.Dim)
			copy(out, c.memData[i*c.cfg.Dim:(i+1)*c.cfg.Dim])
			return out, true
		}
	}
	for si := len(c.segments) - 1; si >= 0; si-- {
		seg := c.segments[si]
		for i, r := range seg.rows {
			if r.id == id && r.gen == gen {
				out := make([]float32, c.cfg.Dim)
				copy(out, seg.data[i*c.cfg.Dim:(i+1)*c.cfg.Dim])
				return out, true
			}
		}
	}
	return nil, false
}

// Flush seals the memtable into a segment. The segment's index is
// built without holding the data lock: the sealed rows stay searchable
// by exact scan in the meantime and switch to the index when it
// installs, so searches and concurrent writers never wait on a build.
func (c *Collection) Flush() error {
	c.maint.Lock()
	defer c.maint.Unlock()
	return c.flushMaint()
}

// flushMaint is Flush's body; the caller holds maint.
func (c *Collection) flushMaint() error {
	// Seal under the data lock: move the memtable into an unindexed
	// segment (exact scans serve it until the build lands).
	c.mu.Lock()
	if len(c.memRows) == 0 {
		c.mu.Unlock()
		return nil
	}
	data := make([]float32, len(c.memData))
	copy(data, c.memData)
	rows := make([]row, len(c.memRows))
	copy(rows, c.memRows)
	segSc, err := vec.NewScorer(c.cfg.Metric, data, len(rows), c.cfg.Dim)
	if err != nil {
		c.mu.Unlock()
		return fmt.Errorf("lsm: segment scorer: %w", err)
	}
	seg := &segment{data: data, rows: rows, sc: segSc}
	c.segments = append(c.segments, seg)
	c.memData = c.memData[:0]
	c.memRows = c.memRows[:0]
	c.memSc.Reset()
	c.flushes++
	segCount := len(c.segments)
	c.mu.Unlock()

	// Build off-lock. On failure the segment stays exact-scan only:
	// its rows remain fully searchable, just without index speedup.
	idx, err := c.cfg.Builder(data, len(rows), c.cfg.Dim)
	if err != nil {
		return fmt.Errorf("lsm: segment index build: %w", err)
	}
	c.mu.Lock()
	// Safe to assign directly: every reader of seg.idx holds mu, and
	// maint guarantees no concurrent compaction replaced the slice.
	seg.idx = idx
	c.mu.Unlock()
	if segCount >= c.cfg.MaxSegments {
		return c.compactMaint()
	}
	return nil
}

// Compact merges all segments, dropping dead rows, and rebuilds one
// index.
func (c *Collection) Compact() error {
	c.maint.Lock()
	defer c.maint.Unlock()
	return c.compactMaint()
}

// compactMaint is Compact's body; the caller holds maint (so the
// segment list cannot change underneath) and must not hold mu. The
// live-row merge snapshots under the read lock, the index build runs
// off-lock, and the merged segment installs atomically. Rows that die
// during the build are filtered at read time by the generation check,
// so the swap is always safe.
func (c *Collection) compactMaint() error {
	d := c.cfg.Dim
	var data []float32
	var rows []row
	c.mu.RLock()
	if len(c.segments) == 0 {
		c.mu.RUnlock()
		return nil
	}
	for _, seg := range c.segments {
		for i, r := range seg.rows {
			if c.latest[r.id] != r.gen {
				continue // dead version
			}
			data = append(data, seg.data[i*d:(i+1)*d]...)
			rows = append(rows, r)
		}
	}
	c.mu.RUnlock()
	if len(rows) == 0 {
		c.mu.Lock()
		c.segments = nil
		c.compactions++
		c.mu.Unlock()
		return nil
	}
	idx, err := c.cfg.Builder(data, len(rows), d)
	if err != nil {
		return fmt.Errorf("lsm: compaction index build: %w", err)
	}
	segSc, err := vec.NewScorer(c.cfg.Metric, data, len(rows), d)
	if err != nil {
		return fmt.Errorf("lsm: compaction scorer: %w", err)
	}
	c.mu.Lock()
	c.segments = []*segment{{data: data, rows: rows, idx: idx, sc: segSc}}
	c.compactions++
	c.mu.Unlock()
	return nil
}

// Search returns the k nearest live vectors. extra is an optional
// additional predicate over user ids (nil for none); ef tunes segment
// index beam width.
//
// The memtable scan and each sealed segment probe are independent
// read-only tasks over the locked snapshot; cfg.Parallelism > 1 fans
// them over the shared worker pool. Each task fills its own collector
// and the caller merges them, so results are identical to the serial
// visit order at every worker count.
func (c *Collection) Search(q []float32, k, ef int, extra func(id int64) bool) ([]topk.Result, error) {
	if k <= 0 {
		return nil, index.ErrBadK
	}
	if len(q) != c.cfg.Dim {
		return nil, fmt.Errorf("lsm: query dim %d, collection dim %d", len(q), c.cfg.Dim)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	tasks := 1 + len(c.segments)
	w := pool.Default().Effective(c.cfg.Parallelism, tasks)
	if w <= 1 {
		col := topk.NewCollector(k)
		c.searchMemtableLocked(q, col, extra)
		for _, seg := range c.segments {
			if err := c.searchSegmentLocked(q, k, ef, seg, col, extra); err != nil {
				return nil, err
			}
		}
		return col.Results(), nil
	}
	obs.ParallelSearches.With("lsm").Inc()
	// Task 0 is the memtable; task i is segment i-1. Workers only read
	// the snapshot (the RLock held here blocks writers), so per-task
	// collectors are the only mutable state.
	collectors := make([]*topk.Collector, tasks)
	errs := make([]error, tasks)
	pool.Default().Run(tasks, func(i int) {
		col := topk.NewCollector(k)
		if i == 0 {
			c.searchMemtableLocked(q, col, extra)
		} else {
			errs[i] = c.searchSegmentLocked(q, k, ef, c.segments[i-1], col, extra)
		}
		collectors[i] = col
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := collectors[0]
	for _, col := range collectors[1:] {
		merged.Merge(col)
	}
	return merged.Results(), nil
}

// memScanBlock is the gather-buffer size for exact memtable/segment
// scans: surviving row indexes accumulate until a block is full, then
// one kernel call scores them all. A package variable so tests can
// sweep it.
var memScanBlock = 256

// scanRows gathers the local row indexes surviving the generation and
// predicate checks and block-scores them into col under their user
// ids. Shared by the memtable scan and the exact segment scan.
func (c *Collection) scanRows(b vec.Bound, rows []row, col *topk.Collector, extra func(id int64) bool) {
	ids := make([]int32, 0, memScanBlock)
	dist := make([]float32, memScanBlock)
	flush := func() {
		b.ScoreIDs(ids, dist)
		for o, li := range ids {
			col.Push(rows[li].id, dist[o])
		}
		ids = ids[:0]
	}
	for i, r := range rows {
		if c.latest[r.id] != r.gen {
			continue
		}
		if extra != nil && !extra(r.id) {
			continue
		}
		ids = append(ids, int32(i))
		if len(ids) == memScanBlock {
			flush()
		}
	}
	flush()
}

// searchMemtableLocked brute-force scans the memtable into col,
// newest version winning via the generation check. Caller holds at
// least a read lock.
func (c *Collection) searchMemtableLocked(q []float32, col *topk.Collector, extra func(id int64) bool) {
	c.scanRows(c.memSc.Bind(q), c.memRows, col, extra)
}

// searchSegmentLocked probes one sealed segment's index with a
// visit-first validity filter and pushes global-id results into col.
// Caller holds at least a read lock. The segment probe runs serial
// (Parallelism 1): the fan-out across segments is this collection's
// parallelism, and nesting another level only adds scheduling churn.
func (c *Collection) searchSegmentLocked(q []float32, k, ef int, seg *segment, col *topk.Collector, extra func(id int64) bool) error {
	if seg.idx == nil {
		// Sealed but not yet indexed (its build is still in flight):
		// exact-scan the segment. Same results, more distance comps.
		c.scanRows(seg.sc.Bind(q), seg.rows, col, extra)
		return nil
	}
	rows := seg.rows
	params := index.Params{
		Ef:          ef,
		NProbe:      ef, // bucket indexes read the same budget knob
		Parallelism: 1,
		Filter: func(local int64) bool {
			r := rows[local]
			if c.latest[r.id] != r.gen {
				return false
			}
			return extra == nil || extra(r.id)
		},
	}
	res, err := seg.idx.Search(q, k, params)
	if err != nil {
		return err
	}
	for _, rr := range res {
		col.Push(rows[rr.ID].id, rr.Dist)
	}
	return nil
}

// SearchExact is the fully accurate (brute force everywhere) variant,
// used as ground truth in tests and experiments.
func (c *Collection) SearchExact(q []float32, k int) ([]topk.Result, error) {
	if k <= 0 {
		return nil, index.ErrBadK
	}
	if len(q) != c.cfg.Dim {
		return nil, fmt.Errorf("lsm: query dim %d, collection dim %d", len(q), c.cfg.Dim)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	col := topk.NewCollector(k)
	c.scanRows(c.memSc.Bind(q), c.memRows, col, nil)
	for _, seg := range c.segments {
		c.scanRows(seg.sc.Bind(q), seg.rows, col, nil)
	}
	return col.Results(), nil
}
