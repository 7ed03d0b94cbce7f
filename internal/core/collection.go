// Package core is the engine behind the public vdbms API: it owns a
// collection's vectors, attribute table, deletion mask, and ANN index,
// wires them into an executor environment, and decides when the index
// is stale enough to rebuild. It is the glue layer of Figure 1 between
// the query processor and the storage manager.
//
// Concurrency follows a single-node version of the multi-version
// designs surveyed in Section 2.4: every mutation publishes a fresh
// immutable snapshot through one atomic pointer, queries run entirely
// against the snapshot they load (no locks, no torn state), and ANN
// index rebuilds happen on a background goroutine over a pinned
// snapshot so they never appear on the query's critical path. The
// reader-visible contract is written down in DESIGN.md §9.
package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vdbms/internal/bitset"
	"vdbms/internal/executor"
	"vdbms/internal/filter"
	"vdbms/internal/index"
	"vdbms/internal/memory"
	"vdbms/internal/obs"
	"vdbms/internal/planner"
	"vdbms/internal/stats"
	"vdbms/internal/storage"
	"vdbms/internal/topk"
	"vdbms/internal/tuner"
	"vdbms/internal/vec"
	"vdbms/internal/wal"

	// Register every index family with the registry.
	_ "vdbms/internal/index/hnsw"
	_ "vdbms/internal/index/ivf"
	_ "vdbms/internal/index/knng"
	_ "vdbms/internal/index/lsh"
	_ "vdbms/internal/index/nsg"
	_ "vdbms/internal/index/nsw"
	_ "vdbms/internal/index/spectral"
	_ "vdbms/internal/index/tree"
)

// Schema describes a collection at creation time.
type Schema struct {
	Dim    int
	Metric vec.Metric
	// Attributes maps column name to type.
	Attributes map[string]filter.Kind
	// RebuildFraction triggers an automatic background index rebuild
	// when the fraction of rows mutated since the last build exceeds
	// it; default 0.2. Rebuilds never run on the query path — see
	// builder.go.
	RebuildFraction float64
	// Quantization, when set to "sq8"/"pq"/"opq", is the default
	// compressed-scan codec folded into every CreateIndex call on a
	// quant-capable family (explicit per-index opts win). ""/"none"
	// disables it. The merged opts are what get recorded in the
	// WAL/checkpoint recipe, so quantized indexes survive recovery
	// unchanged even if the schema default later changes.
	Quantization string
	// RerankK is the default exact re-rank width for quantized scans;
	// 0 selects the per-query default max(4k, 32).
	RerankK int
}

// snapshot is one immutable epoch of the collection. Writers build a
// new snapshot under the writer mutex after every mutation and publish
// it with a single atomic pointer store; readers load the pointer once
// and run their whole query against that epoch without taking any
// lock. Nothing reachable from a published snapshot is ever mutated:
//
//   - env wraps a scorer view pinned at rows (inserts only append, and
//     vector updates either copy the array first or patch a row only
//     while the reader/patcher handshake proves no query is scanning —
//     so a reader never observes a torn row; a patched row is simply
//     the documented read-committed visibility of updates) and an
//     attribute-table view pinned at the same row count (columns are
//     append-only).
//   - del is a copy-on-write deletion mask; Delete clones the bitset
//     before setting a bit, so a reader's mask never changes mid-scan.
//   - ids maps row → id. Until the first Compact it is nil and every id
//     is its row; after it, it is ascending (compaction keeps row
//     order), so id → row is a binary search and ties broken by row
//     break the same way by id. Inserts append past the epoch's rows,
//     which a reader never reads, and a compaction builds a new array.
//   - ann is the installed ANN index, serving the rows [0, ann.Size()):
//     the rows it was built over, plus the inserts since that an
//     extendable family (ivfflat) filed into it. env.ANN is ann whenever
//     one is installed: the executor probes it over that prefix and
//     scans the unindexed tail [ann.Size(), rows) exactly beside it, so
//     inserts since the build are served at once, and an index stale
//     through in-place updates stays live too (DESIGN.md §9 spells out
//     the visibility contract).
type snapshot struct {
	rows   int // rows in this epoch (live + deleted, not yet compacted)
	nDel   int // deleted rows
	env    *executor.Env
	del    *bitset.Bitset // nil until the first delete
	ids    []int64        // row → id; nil while ids are rows
	nextID int64          // the next insert's id: the bound Rows reports
	ann    index.Index    // installed index; may trail rows
	// annKnob is the search parameter ann's family declares, resolved
	// once at install so knob resolution takes no registry lock.
	annKnob tuner.Knob
	// annKind/annOpts record the index recipe at this epoch so saves
	// and checkpoints can serialize it from the pinned snapshot alone.
	annKind string
	annOpts map[string]int
	// lsn is the WAL sequence number of the last mutation in this
	// epoch (0 for non-durable collections): a checkpoint of this
	// snapshot covers exactly the log prefix ≤ lsn.
	lsn uint64
}

// stageWALWait is the pre-bound wal_commit_wait stage handle: commit
// waits are on every durable mutation, so the labeled lookup is paid
// once at init, not per write.
var stageWALWait = obs.SearchStageSeconds.With("wal_commit_wait")

// clampK caps a request's k at the epoch's rows. A larger k asks for
// every row, which is what k = rows returns, so the hits are the same;
// left as sent, it would size the top-k collectors — and with them a
// batch's len(queries)·k, a post-filter's alpha·k and a re-rank width —
// by the request instead of by the data.
func (s *snapshot) clampK(k int) int {
	if s.rows > 0 && k > s.rows {
		return s.rows
	}
	return k
}

// liveRow resolves id to the row holding it in an epoch of n rows with
// row → id map ids (nil: the id is the row) and deletion mask del: an
// error when id was never issued, is deleted, or was compacted away
// after its delete.
func liveRow(ids []int64, n int, nextID int64, del *bitset.Bitset, id int64) (int, error) {
	if id < 0 || id >= nextID {
		return 0, fmt.Errorf("core: id %d out of range [0,%d)", id, nextID)
	}
	row, ok := int(id), true
	if ids != nil {
		row, ok = slices.BinarySearch(ids[:n], id)
	}
	if !ok || (del != nil && del.Test(row)) {
		return 0, fmt.Errorf("core: id %d is deleted", id)
	}
	return row, nil
}

// toIDs rewrites the rows of hits as ids, in place. Queries run on rows
// throughout and map once, on their way out of core.
func (s *snapshot) toIDs(hits []Result) {
	if s.ids == nil {
		return
	}
	for i := range hits {
		hits[i].ID = s.ids[hits[i].ID]
	}
}

// window maps req's Radius and After onto the epoch's rows. Ids rise
// with rows, so a cursor id maps to the last row whose id is at most
// it, whether its own row is live, deleted or compacted away.
func (s *snapshot) window(req *SearchRequest) topk.Window {
	w := topk.Window{Radius: req.Radius}
	if a := req.After; a != nil {
		w.After = &topk.Result{ID: a.ID, Dist: a.Dist}
		if s.ids != nil {
			i, found := slices.BinarySearch(s.ids[:s.rows], a.ID)
			if !found {
				i--
			}
			w.After.ID = int64(i)
		}
	}
	return w
}

// deleted is the epoch's deletion mask as the executor takes it: nil
// while nothing is deleted. The mask is frozen at the row count of the
// delete that produced it and may be shorter than the epoch; the
// executor reads rows it does not cover as live.
func (s *snapshot) deleted() *bitset.Bitset {
	if s.nDel == 0 {
		return nil
	}
	return s.del
}

// Collection is a mutable vector collection with hybrid search.
//
// The query path is lock-free: Search, SearchBatch and Get load the
// current snapshot with one atomic pointer read and never contend with
// writers or index builds. That covers predicates: a query compiles its
// filters once against the snapshot's attribute view (one read-lock per
// referenced column, to capture the slice header of its immutable
// prefix) and from then on evaluates them on plain slices — no lock,
// map or shared counter per row, while writers keep appending to, and
// reallocating, the same columns. Writers
// (Insert, UpdateVector, Delete) serialize on a short mutex covering
// only the mutation plus publication of the next snapshot; every index
// build runs off-lock on the background builder and installs
// atomically, so no query or write ever waits for an index build.
type Collection struct {
	name   string
	schema Schema
	fn     vec.DistanceFunc

	// stats is the collection's online statistics tracker (row churn,
	// query shapes, selectivity histograms, probe cost); sampler is
	// the query reservoir the recall loop replays (an atomic pointer
	// so EnableRecall can resize it while searches run). Both are
	// concurrency-safe and shared across epochs. latency is the
	// per-collection handle into vdbms_search_latency_seconds, bound
	// once so the hot path never does a labeled lookup.
	stats   *stats.Collection
	sampler atomic.Pointer[stats.Reservoir]
	latency *obs.Histogram

	// sampling gates reservoir admission: queries are offered to the
	// sampler only while the recall loop is enabled, so collections
	// without it never pay the sample-copy cost.
	sampling atomic.Bool

	// updateEpoch counts in-place vector updates and compactions.
	// Samples are stamped with it at serve time so the recall loop can
	// skip samples served against vector data that has since been
	// overwritten or renumbered (recall.go's staleness rule for updates,
	// mirroring the deletion check).
	updateEpoch atomic.Uint64

	// Recall loop lifecycle (recall.go): recallLife guards the loop's
	// channels and config. EnableRecall/DisableRecall hold it while they
	// wait for the old loop to exit, and the loop, which takes tuneMu
	// inside a pass, never takes recallLife.
	recallLife sync.Mutex
	recallStop chan struct{}
	recallDone chan struct{}
	recallCfg  RecallConfig

	// Tuner state (recall.go), guarded by tuneMu. frontiers holds one
	// recall-vs-cost frontier per index kind ever tuned on this
	// collection; curFrontier publishes the frontier for the currently
	// installed kind so knob resolution on the query path is one
	// atomic load (resolution re-validates the kind against the
	// snapshot before trusting it). targetRecall is the collection
	// default recall SLO (float64 bits; 0 = none). ladderCursor is
	// where the next pass's ladder subset starts in the reservoir. A
	// drift decision must repeat on consecutive passes before it fires
	// (lastDrift/driftStreak), and passes after a fire are cooled down
	// (driftCooldown).
	tuneMu        sync.Mutex
	frontiers     map[string]*tuner.Frontier
	ladderCursor  int
	lastDrift     string
	driftStreak   int
	driftCooldown int

	curFrontier  atomic.Pointer[tuner.Frontier]
	targetRecall atomic.Uint64

	// snap is the published epoch every query reads.
	snap atomic.Pointer[snapshot]

	// mu serializes writers. It is held for the mutation itself plus
	// snapshot publication — never across an index build.
	mu sync.Mutex
	// scorer block-scores exact scans with cached per-row state. It is
	// extended in place on insert (published views pin their own row
	// count, so appends are invisible to them) and replaced wholesale
	// on in-place update (copy-on-write keeps old epochs intact).
	scorer *vec.Scorer
	data   []float32
	n      int
	del    *bitset.Bitset
	nDel   int
	attrs  *filter.Table
	// ids/nextID are the snapshot's row → id map and next id; ids stays
	// nil (and nextID == n) until the first Compact.
	ids    []int64
	nextID int64

	annKind string
	annOpts map[string]int
	ann     index.Index
	annN    int        // rows the current index was trained on
	annKnob tuner.Knob // the search parameter ann's family declares
	dirty   int        // in-place mutations since that build
	// annUpdates is the updateEpoch of the column ann was built over:
	// while it is current, no vector update has landed since the build.
	annUpdates uint64

	// Background builder state (builder.go). build is the build in
	// flight (nil when idle); buildEpoch invalidates it when CreateIndex,
	// DropIndex, a drift swap or a Compact changes what to build; change
	// is the recorded recipe while no build has installed it yet.
	build      *buildRun
	buildEpoch uint64
	change     *recipeChange

	// Entity-map cache for multi-vector queries, keyed by column name
	// and validated against the snapshot's column and row count (columns
	// are append-only and rows never change owner, so the pair is the
	// attribute version; a Compact replaces every column).
	entMu    sync.Mutex
	entCache map[string]entityEntry

	// Durable write path (durable.go). wal is nil for in-memory
	// collections; when set, every mutation is logged (and assigned
	// walLSN) under mu before it is applied, and acknowledged to the
	// caller only after its group commit. replaying suppresses
	// logging, per-record publication, and build triggers while
	// Recover re-applies history.
	wal       *walBinding
	walLSN    uint64
	replaying bool
	closed    bool

	// Checkpoint state (single-flight under ckptMu).
	ckptMu   sync.Mutex
	ckptLSN  uint64 // LSN covered by the latest checkpoint
	ckptRows int    // rows it holds: a Compact since changes the count
	ckptStop chan struct{}
	ckptDone chan struct{}

	// Reader/patcher handshake for in-place vector updates. Queries pin
	// the epoch they read by incrementing active around the snapshot
	// load; an updater that finds no active reader patches the row in
	// place instead of cloning the whole column (applyUpdateLocked). The
	// two counters form a store-load protocol: the writer publishes
	// patching=1 then checks active, the reader publishes active+1 then
	// checks patching. Sequential consistency of sync/atomic guarantees
	// one of the two observes the other, so either the writer falls back
	// to copy-on-write or the reader waits out the short patch — a torn
	// read is impossible (DESIGN.md §13).
	active   atomic.Int64
	patching atomic.Int64

	// Memory tier (memtier.go). acct is the budget-manager account, nil
	// for unmanaged collections. mapped is non-nil while c.data aliases
	// a mapped column image (a checkpoint's column section or a spill
	// file); maps holds it and every retired mapping a pinned epoch or
	// a running build may still read, until releaseRetiredLocked (or
	// Close) unmaps them. spillDir hosts a non-durable collection's
	// (unlinked) spill files.
	acct     atomic.Pointer[memory.Account]
	mapped   *storage.MmapStore
	maps     []*storage.MmapStore
	spillDir string
}

// beginRead pins the caller as an active reader: until the matching
// endRead, no in-place vector patch can start, and one already started
// is waited out. Pairs with endRead; the window must cover the snapshot
// load and every read through it.
func (c *Collection) beginRead() {
	c.active.Add(1)
	for c.patching.Load() != 0 {
		// A patch is in flight; it is a single row copy plus one cached-
		// state refresh, so spin-yield rather than park.
		runtime.Gosched()
	}
}

// endRead releases the reader pin taken by beginRead.
func (c *Collection) endRead() {
	c.active.Add(-1)
}

// NewCollection creates an empty collection.
func NewCollection(name string, schema Schema) (*Collection, error) {
	if schema.Dim <= 0 {
		return nil, fmt.Errorf("core: dimension must be positive")
	}
	if schema.Metric == vec.Mahalanobis {
		return nil, fmt.Errorf("core: Mahalanobis needs a learned matrix; use a custom executor")
	}
	if schema.RebuildFraction <= 0 {
		schema.RebuildFraction = 0.2
	}
	if _, err := index.ParseQuantKind(schema.Quantization); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if schema.RerankK < 0 {
		return nil, fmt.Errorf("core: rerank_k must be >= 0, got %d", schema.RerankK)
	}
	attrs := filter.NewTable()
	for name, kind := range schema.Attributes {
		if _, err := attrs.AddColumn(name, kind); err != nil {
			return nil, err
		}
	}
	scorer, err := vec.NewScorer(schema.Metric, nil, 0, schema.Dim)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	c := &Collection{
		name:     name,
		schema:   schema,
		fn:       vec.Distance(schema.Metric),
		stats:    stats.New(name),
		latency:  obs.SearchLatency.With(name),
		scorer:   scorer,
		attrs:    attrs,
		entCache: map[string]entityEntry{},
	}
	c.sampler.Store(stats.NewReservoir(0))
	c.publishLocked() // no concurrency before the constructor returns
	return c, nil
}

// publishLocked freezes the current writer state into a fresh epoch
// and stores it for readers. Called with mu held after every mutation.
// During WAL replay publication is deferred to the end of recovery —
// building an executor env per replayed record would make recovery
// quadratic for no reader's benefit.
func (c *Collection) publishLocked() {
	if c.replaying {
		return
	}
	env, err := executor.NewEnvScorer(c.scorer.View(), c.fn, c.ann, c.attrs.View(c.n))
	if err != nil {
		// Unreachable (the scorer is never nil); keep serving the
		// previous epoch rather than poisoning the pointer.
		return
	}
	// Hand the executor the shared stats tracker before the env becomes
	// visible to readers — after the Store it is immutable by contract.
	env.Stats = c.stats
	c.accountLocked()
	c.snap.Store(&snapshot{
		rows:    c.n,
		nDel:    c.nDel,
		env:     env,
		del:     c.del,
		ids:     c.ids,
		nextID:  c.nextID,
		ann:     c.ann,
		annKnob: c.annKnob,
		annKind: c.annKind,
		annOpts: c.annOpts,
		lsn:     c.walLSN,
	})
	c.releaseRetiredLocked()
}

// logLocked appends one mutation record to the WAL, assigning its LSN.
// Called with mu held so log order always matches apply order; the
// returned commit is waited on after mu is released. encode runs only
// when a WAL is attached, keeping the non-durable write path free of
// serialization cost. A zero Commit waits as a no-op.
func (c *Collection) logLocked(encode func() []byte) (wal.Commit, error) {
	if c.wal == nil || c.replaying {
		return wal.Commit{}, nil
	}
	lsn, commit, err := c.wal.log.Append(encode())
	if err != nil {
		return wal.Commit{}, fmt.Errorf("core: wal append: %w", err)
	}
	c.walLSN = lsn
	return commit, nil
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Dim returns the vector dimensionality.
func (c *Collection) Dim() int { return c.schema.Dim }

// Len returns the number of live rows.
func (c *Collection) Len() int {
	s := c.snap.Load()
	return s.rows - s.nDel
}

// Rows returns the number of ids ever issued (live + deleted): every id
// is below it, and a Compact leaves it unchanged.
func (c *Collection) Rows() int { return int(c.snap.Load().nextID) }

// Insert appends a vector with attribute values and returns its id.
// On a durable collection the row is logged before it is applied and
// the call returns only after its WAL record is committed per the sync
// policy — a nil error is the durability acknowledgment.
//
// The row is applied and published to readers before the group commit
// completes, so a commit error means "durability not achieved", not
// "rolled back": the row stays visible until restart (and a checkpoint
// pinning that snapshot can persist it). The WAL error is sticky, so
// every later mutation fails too — restart to recover exactly what
// reached the log (DESIGN.md §10, apply-before-ack visibility).
func (c *Collection) Insert(v []float32, attrs map[string]filter.Value) (int64, error) {
	if len(v) != c.schema.Dim {
		return 0, fmt.Errorf("core: vector dim %d, collection dim %d", len(v), c.schema.Dim)
	}
	c.mu.Lock()
	if attrs == nil {
		attrs = map[string]filter.Value{}
	}
	// Validate fully before logging: a record in the log must always
	// be applicable on replay.
	if err := c.attrs.ValidateRow(attrs); err != nil {
		c.mu.Unlock()
		return 0, err
	}
	commit, err := c.logLocked(func() []byte { return encodeInsert(v, attrs, c.schema.Attributes) })
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	id, err := c.applyInsertLocked(v, attrs)
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	c.stats.RecordInsert(1)
	return id, c.waitCommit(commit)
}

// waitCommit waits for a mutation's group commit, timing the wait into
// the wal_commit_wait stage. In-memory collections (zero Commit,
// returns immediately) skip the observation so the stage histogram
// reflects real WAL waits only.
func (c *Collection) waitCommit(commit wal.Commit) error {
	if c.wal == nil {
		return commit.Wait()
	}
	start := time.Now()
	err := commit.Wait()
	stageWALWait.Observe(time.Since(start).Seconds())
	return err
}

// applyInsertLocked is the memory-state half of Insert, shared with
// WAL replay. Caller holds mu and has validated the row.
func (c *Collection) applyInsertLocked(v []float32, attrs map[string]filter.Value) (int64, error) {
	if err := c.attrs.AppendRow(attrs); err != nil {
		return 0, err
	}
	// Appending is snapshot-safe without copying: published views pin
	// their row count, so they never read past the old prefix, and a
	// reallocating append leaves their backing array untouched. When the
	// column lives in the mmap tier the append reallocates to heap
	// (mapped slices have cap == len), which is exactly promotion — the
	// mapping is read-only, so writes must land on the heap copy. A heap
	// column that reallocates moves an index no vector update has made
	// stale onto the copy, so that the superseded array is freed and a
	// probe and its tail scan read one column.
	realloc := len(c.data)+len(v) > cap(c.data)
	c.data = append(c.data, v...)
	switch {
	case c.mapped != nil:
		c.promotedLocked()
	case realloc && c.annCurrentLocked():
		c.rebindLocked()
	}
	id := c.nextID
	c.nextID++
	if c.ids != nil {
		c.ids = append(c.ids, id)
	}
	c.n++
	c.scorer.Extend(c.data, c.n)
	c.extendLocked()
	// Growth is tracked as n - annN whether or not the index filed the
	// row; dirty counts only in-place mutations, so inserts are not
	// double counted.
	c.publishLocked()
	c.maybeTriggerBuildLocked()
	return id, nil
}

// extendLocked files the rows past the installed index into it when its
// family can (index.Extendable), so that they are served through the
// index rather than scanned as its tail. It files only while no vector
// update has landed since the build and the column is on the heap: the
// index would otherwise mix the vectors it was built over with the
// updated column. The extended index shares the old one's structure, which
// published snapshots keep searching unchanged. annN stays the rows the
// build trained on, so filed rows still count towards a rebuild.
// Caller holds mu.
func (c *Collection) extendLocked() {
	if c.ann == nil || c.ann.Size() >= c.n || c.mapped != nil || !c.annCurrentLocked() {
		return
	}
	if e, ok := c.ann.(index.Extendable); ok {
		if idx, ok := e.Extend(c.data, c.n); ok {
			c.ann = idx
		}
	}
}

// UpdateVector overwrites the vector stored at id. The flat scan path
// sees the new values on the very next snapshot; an installed ANN
// index keeps scoring the array it was built over until the staleness
// threshold triggers a background rebuild (DESIGN.md §9). On a durable
// collection a commit error does not roll the update back — see
// Insert's apply-before-ack note.
func (c *Collection) UpdateVector(id int64, v []float32) error {
	if len(v) != c.schema.Dim {
		return fmt.Errorf("core: vector dim %d, collection dim %d", len(v), c.schema.Dim)
	}
	c.mu.Lock()
	row, err := c.liveRowLocked(id)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	commit, err := c.logLocked(func() []byte { return encodeUpdate(id, v) })
	if err != nil {
		c.mu.Unlock()
		return err
	}
	err = c.applyUpdateLocked(row, v)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.stats.RecordUpdate()
	return c.waitCommit(commit)
}

// applyUpdateLocked is the memory-state half of UpdateVector, shared
// with WAL replay. Caller holds mu and has resolved the id to row.
//
// Fast path: when no reader is pinned (and nothing else aliases the
// column), the row is patched in place — O(d) instead of the O(n·d)
// full-column clone. Slow path: copy-on-write exactly as before, taken
// whenever a concurrent query, a pinned index build, or the mmap tier
// could observe the mutation. BenchmarkUpdateInPlace measures the gap.
func (c *Collection) applyUpdateLocked(row int, v []float32) error {
	if !c.tryPatchLocked(row, v) {
		// Copy-on-write: a published snapshot is being read lock-free
		// right now (or the column is pinned/mapped), so an in-place
		// write could tear a concurrent scan. Copy the prefix, patch the
		// row, and stand up a fresh scorer.
		d := c.schema.Dim
		data := make([]float32, c.n*d, c.n*d)
		copy(data, c.data[:c.n*d])
		copy(data[row*d:(row+1)*d], v)
		sc, err := vec.NewScorer(c.schema.Metric, data, c.n, d)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		c.data, c.scorer = data, sc
		if c.mapped != nil {
			c.promotedLocked()
		}
	}
	c.updateEpoch.Add(1)
	if c.ann != nil {
		c.dirty++
	}
	c.publishLocked()
	c.maybeTriggerBuildLocked()
	return nil
}

// tryPatchLocked attempts the in-place row patch. Caller holds mu (so
// there is exactly one potential patcher). It refuses when the column
// is mmap-backed (the mapping is read-only), when an off-lock build
// has pinned the column by reference, or when any reader is active;
// otherwise it raises the patching flag, re-checks for readers (the
// store-load handshake with beginRead), writes the row, refreshes the
// scorer's cached per-row state, and lowers the flag.
func (c *Collection) tryPatchLocked(row int, v []float32) bool {
	if c.mapped != nil || c.build != nil {
		return false
	}
	c.patching.Store(1)
	if c.active.Load() != 0 {
		c.patching.Store(0)
		return false
	}
	// No reader holds a pin, and any that arrives now spins on the
	// patching flag until we lower it: the window is exclusively ours.
	d := c.schema.Dim
	copy(c.data[row*d:(row+1)*d], v)
	c.scorer.Refresh(row)
	c.patching.Store(0)
	return true
}

// Delete hides a row from all future queries. Snapshots already loaded
// by in-flight searches keep their own mask and may still return the
// row — the documented read-committed behavior. On a durable
// collection a commit error does not undo the delete — see Insert's
// apply-before-ack note.
func (c *Collection) Delete(id int64) error {
	c.mu.Lock()
	row, err := c.liveRowLocked(id)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	commit, err := c.logLocked(func() []byte { return encodeDelete(id) })
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.applyDeleteLocked(row)
	c.mu.Unlock()
	c.stats.RecordDelete()
	return c.waitCommit(commit)
}

// applyDeleteLocked is the memory-state half of Delete, shared with
// WAL replay. Caller holds mu and has resolved the id to row.
func (c *Collection) applyDeleteLocked(row int) {
	// Copy-on-write mask, regrown to the current row count so the new
	// epoch's bitset covers every id it can be asked about. The old mask
	// covers no more rows than there are, so its words copy as they are.
	del := bitset.New(c.n)
	if c.del != nil {
		copy(del.Words(), c.del.Words())
	}
	del.Set(row)
	c.del = del
	c.nDel++
	if c.ann != nil {
		c.dirty++
	}
	c.publishLocked()
	c.maybeTriggerBuildLocked()
}

// Get returns the vector and attributes for a live id, read from the
// current snapshot without locking.
func (c *Collection) Get(id int64) ([]float32, map[string]filter.Value, error) {
	c.beginRead()
	defer c.endRead()
	s := c.snap.Load()
	row, err := liveRow(s.ids, s.rows, s.nextID, s.del, id)
	if err != nil {
		return nil, nil, err
	}
	d := c.schema.Dim
	v := make([]float32, d)
	copy(v, s.env.Data[row*d:(row+1)*d])
	out := map[string]filter.Value{}
	for _, col := range s.env.Attrs.Columns() {
		cc, _ := s.env.Attrs.Column(col)
		out[col] = cc.Get(row)
	}
	return v, out, nil
}

// liveRowLocked resolves id against the writer state (liveRow).
func (c *Collection) liveRowLocked(id int64) (int, error) {
	return liveRow(c.ids, c.n, c.nextID, c.del, id)
}

// CreateIndex builds (or replaces) the ANN index using a registered
// family ("hnsw", "ivfflat", "lsh", ...) and its options. It records the
// recipe and waits for the background builder to build and install it
// (after any build in flight; again over the new rows if a Compact lands
// meanwhile) while writes and searches proceed. It returns that build's
// error or its WAL commit's, or nil when a later CreateIndex, DropIndex
// or drift swap supersedes the recipe first. Writes during the build
// leave the index trailing or stale, and the builder catches up.
func (c *Collection) CreateIndex(kind string, opts map[string]int) error {
	// Fold the collection-level quantization default into the recipe
	// before anything is logged: the materialized opts map is what
	// builds AND what replays.
	opts, qerr := index.MergeQuantDefaults(kind, opts, c.schema.Quantization, c.schema.RerankK)
	if qerr != nil {
		return qerr
	}
	c.mu.Lock()
	if c.n == 0 {
		c.mu.Unlock()
		return fmt.Errorf("core: cannot index an empty collection")
	}
	ch := c.changeRecipeLocked(kind, opts)
	c.mu.Unlock()
	<-ch.done
	if ch.err != nil {
		return ch.err
	}
	return ch.commit.Wait()
}

// Compact drops the deleted rows: the live rows, their attributes and
// their ids move, in row order, into a fresh heap column (a mapped
// column is promoted), so exact scans, memory and checkpoints stop
// paying for dead rows while every id keeps naming its vector — Len and
// Rows are unchanged. The installed index was built over the old rows:
// it is dropped and the builder rebuilds the recorded recipe as a
// staleness rebuild does, with searches scanning exactly until it
// installs. In-flight builds are discarded, and recall samples served
// before the compaction go stale. Compact is not logged: a checkpoint
// from before it plus the log replays to the same ids (DESIGN.md §9).
func (c *Collection) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("core: collection %q is closed", c.name)
	}
	if c.nDel == 0 {
		return nil
	}
	d, live := c.schema.Dim, c.n-c.nDel
	keep := make([]int, 0, live)
	for row := 0; row < c.n; row++ {
		if !c.del.Test(row) {
			keep = append(keep, row)
		}
	}
	data := make([]float32, live*d)
	ids := make([]int64, live)
	for i, row := range keep {
		copy(data[i*d:(i+1)*d], c.data[row*d:(row+1)*d])
		ids[i] = int64(row)
		if c.ids != nil {
			ids[i] = c.ids[row]
		}
	}
	sc, err := vec.NewScorer(c.schema.Metric, data, live, d)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	c.data, c.scorer, c.n, c.ids = data, sc, live, ids
	c.attrs = c.attrs.Gather(keep)
	c.del, c.nDel = nil, 0
	c.ann, c.annN, c.dirty = nil, 0, 0
	if c.mapped != nil {
		c.promotedLocked()
	}
	c.buildEpoch++
	c.updateEpoch.Add(1)
	c.publishLocked()
	c.maybeTriggerBuildLocked()
	return nil
}

// DropIndex removes the ANN index (queries fall back to exact scan).
// Any in-flight build is invalidated and will be discarded.
func (c *Collection) DropIndex() {
	c.mu.Lock()
	commit, _ := c.logLocked(func() []byte { return encodeDropIndex() })
	c.buildEpoch++
	c.endChangeLocked()
	prevKind := c.annKind
	c.ann, c.annKind, c.annOpts = nil, "", nil
	c.annN, c.dirty = 0, 0
	c.publishLocked()
	c.mu.Unlock()
	c.resetFrontier(prevKind)
	// A drop that fails to commit costs at most a spurious rebuild on
	// recovery; the sticky WAL error surfaces on the next mutation.
	commit.Wait()
}

// IndexInfo reports the current index family, the rows served through
// it and the in-place mutations since its build (IndexStatus).
func (c *Collection) IndexInfo() (kind string, covered, dirty int) {
	kind, covered, dirty, _ = c.IndexStatus()
	return kind, covered, dirty
}

// Result is one hit: the index's own type, handed up without a copy.
type Result = topk.Result

// Parameter-source labels: where a query's resolved Ef/NProbe came
// from, in resolution priority order. Exported per query in
// SearchResult, the root trace span, and vdbms_plan_param_source_total.
const (
	// SourceExplicit: the request carried Ef or NProbe itself.
	SourceExplicit = "explicit"
	// SourceTuned: a recall target was resolved against a trusted
	// frontier point.
	SourceTuned = "tuned"
	// SourceSafeDefault: a recall target was requested but the
	// frontier is cold/stale/under-observed — the ladder maximum is
	// used so the SLO is not missed while the tuner warms up.
	SourceSafeDefault = "safe_default"
	// SourceIndexDefault: neither knobs nor a target; the index's own
	// built-in default applies (zeros pass through).
	SourceIndexDefault = "index_default"
)

// Search executes the request under ctx, on the caller's goroutine.
// The whole query runs against one snapshot loaded at entry — it never
// blocks on writers or index builds. A query whose context is
// cancelled or past its deadline stops: the exhaustive scan and the
// allowlist build check ctx once per block, the graph indexes (hnsw,
// nsw, nsg, vamana, fanng, knng) once per expanded node, the IVF family
// once per inverted list, LSH and spectral hashing once per bucket and
// the trees once per leaf. The search then returns ctx's error — no work continues in the
// background — and the truncated probe is kept out of the collection's
// statistics and the recall loop. An uncancellable ctx
// (context.Background) costs one nil check per block.
//
// The query fills one executor.Record: the executor publishes its
// stages and probes, and observe counts and times the request from it.
// With req.Trace the record is also returned as SearchResult.Trace: the
// pipeline stages (plan, filter, index_probe, ...) under a root that
// carries the resolved plan and parameters.
func (c *Collection) Search(ctx context.Context, req SearchRequest) (SearchResult, error) {
	if err := ctx.Err(); err != nil {
		return SearchResult{}, err
	}
	if err := checkWindow(&req); err != nil {
		return SearchResult{}, err
	}
	preds, err := c.convertFilters(req.Filters)
	if err != nil {
		return SearchResult{}, err
	}
	agg := vec.AggMin
	if req.Aggregator != "" {
		if agg, err = vec.ParseAggregator(req.Aggregator); err != nil {
			return SearchResult{}, err
		}
	}
	start := time.Now()
	// Captured before the query runs: an update racing the search gets
	// a higher epoch, so the sample reads as stale — the conservative
	// direction for the recall loop.
	epoch := c.updateEpoch.Load()
	var rec executor.Record
	c.beginRead()
	s := c.snap.Load()
	res, err := c.search(ctx, s, &req, preds, agg, &rec)
	c.endRead()
	c.touchAccount()
	rec.Err = err
	c.observe(&req, preds, s, epoch, start, &rec, &res)
	if err != nil {
		return SearchResult{}, err
	}
	if res.Hits == nil {
		res.Hits = []Result{} // an empty answer encodes as [], not null
	}
	return res, nil
}

// observe publishes one query's request-level facts from its record —
// the search and error counters, the latency since start, the executed
// plan and parameter source, the query shape, and (while the recall
// loop samples) the reservoir offer — the executor having published
// its stages and probes. epoch and s are the update epoch and snapshot
// the query was served at. With req.Trace it renders res.Trace from the
// record.
func (c *Collection) observe(req *SearchRequest, preds []filter.Predicate, s *snapshot, epoch uint64, start time.Time, rec *executor.Record, res *SearchResult) {
	elapsed := time.Since(start)
	obs.SearchTotal.Inc()
	c.latency.Observe(elapsed.Seconds())
	if rec.Err != nil {
		obs.SearchErrors.Inc()
		return
	}
	obs.SearchPlans.With(res.Plan).Inc()
	obs.PlanParamSource.With(res.ParamSource).Inc()
	c.stats.RecordQuery(req.K, req.Ef, req.NProbe, len(preds) > 0)
	if len(req.Vectors) == 0 && len(req.Vector) > 0 && req.Radius == 0 && req.After == nil && c.sampling.Load() {
		// Offer the served k-NN query (not a range or a page, which a
		// replay would score as k-NN) to the recall reservoir. The sample
		// copy is built only on admission, which Algorithm R makes
		// vanishingly rare at volume.
		hits := res.Hits
		c.sampler.Load().MaybeOffer(func() stats.Sample { return makeSample(req, preds, hits, epoch, s.rows) })
	}
	if req.Trace {
		// The root carries the decision, so a mis-planned query is
		// debuggable straight from the slowlog.
		t := rec.Trace("search", elapsed)
		t.Tags = map[string]string{"plan": res.Plan, "param_source": res.ParamSource}
		if res.Ef > 0 || res.NProbe > 0 {
			t.Annotations = map[string]int64{}
			if res.Ef > 0 {
				t.Annotations["ef"] = int64(res.Ef)
			}
			if res.NProbe > 0 {
				t.Annotations["nprobe"] = int64(res.NProbe)
			}
		}
		res.Trace = t
	}
}

// makeSample deep-copies the parts of a served query the recall loop
// needs to replay it: the vector, predicates, k, and the ids the
// serving path returned, stamped with the update epoch current when
// the query started and the row count of the snapshot that served it.
func makeSample(req *SearchRequest, preds []filter.Predicate, res []Result, epoch uint64, rows int) stats.Sample {
	v := make([]float32, len(req.Vector))
	copy(v, req.Vector)
	if len(preds) > 0 {
		preds = append([]filter.Predicate(nil), preds...)
	}
	served := make([]int64, len(res))
	for i, r := range res {
		served[i] = r.ID
	}
	return stats.Sample{Vector: v, K: req.K, Preds: preds, Served: served, Epoch: epoch, Rows: rows}
}

// resolveKnobs resolves the search parameters for one query against
// the layered precedence: explicit per-query knobs beat a recall
// target (per-query, else collection default) resolved through the
// tuner's frontier onto the knob the index's family declares, which
// beats the index's built-in defaults (zeros pass through untouched).
// An explicit Ef or NProbe pins BOTH values: mixing an explicit knob
// with tuned values would silently retune the knob the caller set.
func (c *Collection) resolveKnobs(req *SearchRequest, s *snapshot) (ef, nprobe int, source string) {
	if req.Ef > 0 || req.NProbe > 0 {
		return req.Ef, req.NProbe, SourceExplicit
	}
	target := req.TargetRecall
	if target <= 0 {
		target = math.Float64frombits(c.targetRecall.Load())
	}
	if target > 0 && s.ann != nil {
		knob := s.annKnob
		param, src := 0, SourceSafeDefault
		if fr := c.curFrontier.Load(); fr != nil && fr.Kind() == s.annKind {
			p, trusted := fr.Resolve(target, req.K)
			param = p
			if trusted {
				src = SourceTuned
			}
		} else {
			// Target requested but no frontier for this kind yet: the
			// ladder maximum is the not-yet-warmed-up safe default.
			l := tuner.Ladder(knob)
			param = l[len(l)-1]
		}
		if knob == tuner.KnobNProbe {
			return 0, param, src
		}
		return param, 0, src
	}
	return 0, 0, SourceIndexDefault
}

// search plans and runs one query on snapshot s into rec; preds and agg
// are req's filters and aggregator, already checked.
func (c *Collection) search(ctx context.Context, s *snapshot, req *SearchRequest, preds []filter.Predicate, agg vec.Aggregator, rec *executor.Record) (SearchResult, error) {
	if s.rows == 0 {
		return SearchResult{}, fmt.Errorf("core: collection %q is empty", c.name)
	}
	req.K = s.clampK(req.K)
	env := s.env
	var res SearchResult
	res.Ef, res.NProbe, res.ParamSource = c.resolveKnobs(req, s)
	plan, forced, err := planner.ParsePolicy(req.Policy, req.Alpha)
	if err != nil {
		return SearchResult{}, err
	}
	if req.Radius > 0 {
		if forced && plan.Kind != planner.BruteForce {
			return SearchResult{}, fmt.Errorf("%w: a radius is answered by plan:brute_force, not %s", ErrWindow, req.Policy)
		}
		plan, forced = planner.Plan{Kind: planner.BruteForce}, true
	}
	opts := executor.Options{Ef: res.Ef, NProbe: res.NProbe, RerankK: req.RerankK, Deleted: s.deleted(), Record: rec, Ctx: ctx, Window: s.window(req)}

	switch {
	case len(req.Vectors) > 0:
		if req.EntityColumn == "" {
			return SearchResult{}, fmt.Errorf("core: multi-vector query needs EntityColumn")
		}
		if agg == vec.AggWeightedSum && len(req.Weights) != len(req.Vectors) {
			return SearchResult{}, fmt.Errorf("core: weighted_sum needs one weight per query vector, got %d weights for %d vectors",
				len(req.Weights), len(req.Vectors))
		}
		rec.Plan = planner.Plan{Kind: planner.SingleStage}
		res.Hits, err = c.multiVector(s, req, agg, preds, opts)
	case forced:
		res.Hits, err = env.Execute(plan, req.Vector, req.K, preds, opts)
		s.toIDs(res.Hits)
	default:
		res.Hits, _, err = env.Search(req.Vector, req.K, preds, opts, "")
		s.toIDs(res.Hits)
	}
	if err != nil {
		return SearchResult{}, err
	}
	res.Plan = rec.Plan.Kind.String()
	return res, nil
}

// entityEntry is one cached row→entity grouping.
type entityEntry struct {
	col  *filter.Column
	rows int
	m    *executor.EntityMap
}

// entityMap returns the entity grouping for the snapshot, cached per
// column. Columns are append-only and rows never change owner, so a
// map built over column col at row count R is exact for every snapshot
// with R rows of col; an entry is replaced when the collection has
// grown past it or compacted into a new column. Updates and deletes
// leave ownership intact and need no invalidation (deleted rows are
// masked by the executor, not the map).
func (c *Collection) entityMap(s *snapshot, name string, col *filter.Column) *executor.EntityMap {
	c.entMu.Lock()
	if e, ok := c.entCache[name]; ok && e.col == col && e.rows == s.rows {
		c.entMu.Unlock()
		return e.m
	}
	c.entMu.Unlock()
	owner := make([]int64, s.rows)
	for i := range owner {
		owner[i] = col.Get(i).I
	}
	m := executor.NewEntityMap(owner)
	c.entMu.Lock()
	if e, ok := c.entCache[name]; !ok || e.col != col || e.rows < s.rows {
		c.entCache[name] = entityEntry{col: col, rows: s.rows, m: m}
	}
	c.entMu.Unlock()
	return m
}

// multiVector answers a multi-vector query on s: entities are scored
// over their live rows that pass preds.
func (c *Collection) multiVector(s *snapshot, req *SearchRequest, agg vec.Aggregator, preds []filter.Predicate, opts executor.Options) ([]Result, error) {
	env := s.env
	col, ok := env.Attrs.Column(req.EntityColumn)
	if !ok {
		return nil, fmt.Errorf("core: unknown entity column %q", req.EntityColumn)
	}
	if col.Kind() != filter.Int64 {
		return nil, fmt.Errorf("core: entity column %q must be Int64", req.EntityColumn)
	}
	m := c.entityMap(s, req.EntityColumn, col)
	if env.ANN != nil {
		return env.MultiVectorANN(m, agg, req.Vectors, req.Weights, req.K, 0, preds, opts)
	}
	return env.MultiVectorExact(m, agg, req.Vectors, req.Weights, req.K, preds, opts)
}

// SearchBatch answers many queries under one shared plan, against one
// snapshot. The request supplies the same execution knobs as Search —
// Policy (including "plan:<kind>" forcing), K, Filters, Ef, NProbe,
// Alpha — but the plan is chosen once and reused for the
// whole batch, so the per-query fields (Vector, Vectors, EntityColumn,
// Trace) are ignored, and a Radius or After is an error (ErrWindow): a
// page cursor belongs to one query. ctx stops the batch as it stops a
// Search: every query still running returns ctx's error. Per-query failures are
// partial, not fatal: successful slots are returned alongside an error
// naming each failing query's index (a failed slot is nil). Each query
// is observed as the search it answers, with the batch's latency — what
// its caller waited for it.
func (c *Collection) SearchBatch(ctx context.Context, qs [][]float32, req SearchRequest) ([][]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if req.Radius != 0 || req.After != nil {
		return nil, fmt.Errorf("%w: a batch takes neither a radius nor a cursor", ErrWindow)
	}
	preds, err := c.convertFilters(req.Filters)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	epoch := c.updateEpoch.Load()
	c.beginRead()
	defer c.endRead()
	defer c.touchAccount()
	s := c.snap.Load()
	env := s.env
	req.K = s.clampK(req.K)
	plan, forced, err := planner.ParsePolicy(req.Policy, req.Alpha)
	if err == nil && !forced {
		plan, err = env.Plan(req.K, preds, "", nil)
	}
	if err != nil {
		return nil, err
	}
	// Knob resolution is shared with Search: a batch without explicit
	// Ef/NProbe resolves through the recall target and collection
	// defaults exactly once for the whole batch.
	res := SearchResult{Plan: plan.Kind.String()}
	res.Ef, res.NProbe, res.ParamSource = c.resolveKnobs(&req, s)
	opts := executor.Options{Ef: res.Ef, NProbe: res.NProbe, RerankK: req.RerankK, Deleted: s.deleted(), Ctx: ctx}
	out, recs, err := env.SearchBatch(plan, qs, req.K, preds, opts)
	one := req
	one.Vectors, one.Trace = nil, false
	for i := range recs {
		s.toIDs(out[i])
		one.Vector, res.Hits = qs[i], out[i]
		c.observe(&one, preds, s, epoch, start, &recs[i], &res)
	}
	return out, err
}

// Stats returns a point-in-time snapshot of the collection's online
// statistics joined with the current epoch's row counts.
func (c *Collection) Stats() stats.Snapshot {
	s := c.snap.Load()
	return c.stats.Snapshot(int(s.nextID), s.rows-s.nDel, c.schema.Dim)
}

// AttributeKinds exposes the attribute schema (the public API's Get
// and AttributeTypes read it). The column set is fixed at creation.
func (c *Collection) AttributeKinds() map[string]filter.Kind {
	out := make(map[string]filter.Kind, len(c.schema.Attributes))
	maps.Copy(out, c.schema.Attributes)
	return out
}
