package index

import (
	"math/bits"
	"sync"
	"time"

	"vdbms/internal/obs"
	"vdbms/internal/pool"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// scanBlock is the rows scored per kernel call: large enough to
// amortize dispatch, small enough that the distance buffer stays in
// L1. A package variable so tests can sweep it.
var scanBlock = 256

// blockScorer is the slice of the Bind contract the float kernel
// (vec.Bound) and a code kernel (vec.Uncut) share, so one scan serves
// both by configuration, not code.
type blockScorer interface {
	ScoreBlockWithin(lo, hi int, out []float32, bound float32) int
	ScoreIDsWithin(ids []int32, out []float32, bound float32) int
}

// Scan is the candidate scan every table- and tree-shaped family
// shares: it scores a candidate set — a row range, or the members of an
// inverted list, hash bucket or leaf — with the similarity projection
// of Section 2.1 and keeps the best. Flat and IVF hand it their
// partitions through Fanout; LSH, spectral hashing and the trees hand
// it one bucket at a time.
//
// Candidates are scored scanBlock at a time, each block within its
// collector's bound as it stood before the block — the k-th distance,
// or the radius of a windowed collector (topk.Window) while it has
// room: the collector keeps nothing above it, so a row the kernel cuts
// there could never have entered (vec.Bound.ScoreBlockWithin). Only rows the query's predicates admit
// are scored and counted. The scan polls the query's context, and its
// deadline on the clock, before every contiguous block, before every
// list and after every gathered block, and scores nothing more once it
// has ended. Scans are pooled, so neither the float binding nor the
// gather buffer allocates.
type Scan struct {
	// Work is what the scan has scored so far.
	Work ScanWork
	b    blockScorer
	fb   vec.Bound // the float binding b points at
	p    Params
	done <-chan struct{}
	end  time.Time // the query's deadline, zero if none
	stop bool
	c    *topk.Collector // the sink
	ids  []int32         // admitted candidates gathered, not yet scored
	dist []float32
}

var scans = sync.Pool{New: func() any { return new(Scan) }}

// newScan takes a pooled scan of q feeding c. It scores with qsc when
// set, else with sc.
func newScan(sc *vec.Scorer, qsc vec.QuantScorer, q []float32, p *Params, c *topk.Collector) *Scan {
	s := scans.Get().(*Scan)
	if cap(s.dist) < scanBlock {
		s.ids, s.dist = make([]int32, 0, scanBlock), make([]float32, scanBlock)
	}
	if qsc != nil {
		s.b = vec.Uncut{QuantBound: qsc.Bind(q)}
	} else {
		s.fb = sc.Bind(q)
		s.b = &s.fb
	}
	s.p, s.done, s.c = *p, p.Done(), c
	if p.Ctx != nil {
		s.end, _ = p.Ctx.Deadline()
	}
	return s
}

// release returns s to the pool, keeping only its buffers.
func (s *Scan) release() {
	*s = Scan{ids: s.ids[:0], dist: s.dist}
	scans.Put(s)
}

// NewScan begins a top-k scan of q under sc over candidates the caller
// hands it bucket by bucket; Finish ends it.
func NewScan(sc *vec.Scorer, q []float32, k int, p *Params) *Scan {
	return newScan(sc, nil, q, p, topk.NewCollector(k))
}

// Finish ends a scan from NewScan: it records its work and the buckets
// the caller probed in p.Stats and returns the top k, or the context's
// error when the search stopped early.
func (s *Scan) Finish(buckets int) ([]topk.Result, error) {
	p, c, work := s.p, s.c, s.Work
	s.release()
	if p.Stats != nil {
		work.Record(p.Stats)
		p.Stats.BucketsProbed += int64(buckets)
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	return c.Results(), nil
}

// Stopped polls the query's context, and its deadline on the clock
// (Params.Err), and reports whether it has ended.
func (s *Scan) Stopped() bool {
	s.stop = Stopped(s.done) || !s.end.IsZero() && time.Now().After(s.end)
	return s.stop
}

// Worst is the collector's k-th distance: a branch whose lower bound
// passes it cannot hold a hit.
func (s *Scan) Worst() float32 { return s.c.Worst() }

// Push offers one candidate the caller scored itself, counting it.
func (s *Scan) Push(id int32, d float32) {
	s.Work.Comps++
	s.c.Push(int64(id), d)
}

// Bucket scores the admitted members of one bucket before it returns,
// and reports whether the scan goes on: false once the context ended.
func (s *Scan) Bucket(ids []int32) bool {
	ok := s.List(ids)
	s.flush()
	return ok
}

// List scores the admitted members of one candidate list and reports
// whether the scan goes on: false once the context ended. Without a
// predicate the list goes to the kernel as it is stored, block by
// block; under one, admitted ids are gathered into blocks that may span
// lists, and Fanout scores the last of them when the part returns.
func (s *Scan) List(ids []int32) bool {
	if s.Stopped() {
		return false
	}
	if !s.p.Constrained() {
		for len(ids) > 0 {
			n := min(len(ids), scanBlock)
			s.score(ids[:n])
			ids = ids[n:]
		}
		return true
	}
	for i := 0; i < len(ids) && !s.stop; i++ {
		if s.p.Admits(int64(ids[i])) {
			s.add(ids[i])
		}
	}
	return !s.stop
}

// rows scores the admitted rows of [lo, hi). Without a predicate it
// scores whole contiguous blocks. Under one it gathers the admitted
// ids: an Allow bitmap is walked word by word — zero words cost one
// load per 64 rows and set bits are peeled with TrailingZeros64 — so a
// selective allowlist is scanned in time proportional to its
// survivors, not to the rows it spans; a Filter, alone or on top of
// Allow, is called once per candidate row.
func (s *Scan) rows(lo, hi int) {
	p := &s.p
	if !p.Constrained() {
		for blo := lo; blo < hi && !s.Stopped(); blo += scanBlock {
			s.scoreRange(blo, min(blo+scanBlock, hi))
		}
		return
	}
	if s.Stopped() {
		return
	}
	if p.Allow == nil {
		for i := lo; i < hi && !s.stop; i++ {
			if p.Filter(int64(i)) {
				s.add(int32(i))
			}
		}
		return
	}
	if n := p.Allow.Len(); hi > n {
		hi = n // rows the bitmap does not cover are blocked
	}
	words := p.Allow.Words()
	for base := lo &^ 63; base < hi && !s.stop; base += 64 {
		w := words[base>>6]
		if base < lo {
			w &^= 1<<uint(lo-base) - 1
		}
		if hi-base < 64 {
			w &= 1<<uint(hi-base) - 1
		}
		for ; w != 0 && !s.stop; w &= w - 1 {
			id := base + bits.TrailingZeros64(w)
			if p.Filter == nil || p.Filter(int64(id)) {
				s.add(int32(id))
			}
		}
	}
}

// add gathers one admitted id, scoring the block once it is full and
// polling the context after it.
func (s *Scan) add(id int32) {
	s.ids = append(s.ids, id)
	if len(s.ids) == scanBlock {
		s.score(s.ids)
		s.ids = s.ids[:0]
		s.Stopped()
	}
}

// flush scores the gathered ids, unless the scan has stopped.
func (s *Scan) flush() {
	if len(s.ids) > 0 && !s.stop {
		s.score(s.ids)
	}
	s.ids = s.ids[:0]
}

// score scores a gathered block into the sink.
func (s *Scan) score(ids []int32) {
	dist := s.dist[:len(ids)]
	s.Work.Cut += int64(s.b.ScoreIDsWithin(ids, dist, s.c.Worst()))
	s.Work.Comps += int64(len(ids))
	s.c.PushIDs(ids, dist)
}

// scoreRange scores the contiguous rows [lo, hi) into the sink.
func (s *Scan) scoreRange(lo, hi int) {
	dist := s.dist[:hi-lo]
	s.Work.Cut += int64(s.b.ScoreBlockWithin(lo, hi, dist, s.c.Worst()))
	s.Work.Comps += int64(len(dist))
	s.c.PushBlock(int64(lo), dist)
}

// Fanout is one partitioned top-k scan: Tasks units of work (rows, or
// probed lists) split into Workers contiguous parts, each scanned into
// its own collector and merged at the end. Because the per-part
// collectors and the merge resolve ties by (dist, id), and the kernels
// score every row on its own in one accumulation order, the result is
// byte-identical at every part count and block size.
//
// Only a full-column flat scan sets Workers (Flat.workers). Every scan
// inside or beside an index probe — an IVF probe's lists, the unindexed
// tail past an index's rows — leaves it zero and runs in one part on
// the calling goroutine: the parts past the first never see a tight
// k-th distance and read whole rows, and under concurrent queries the
// hand-offs cost more than the split saves. A long tail is priced into
// the plan as an exact scan (planner.Env.Tail), so a tail too long for
// one part plans brute_force, whose full-column scan keeps its fan-out.
//
// The parts score with Quant when it is set, else with Exact. A
// positive RerankK marks a scan of codes: the parts collect RerankK
// approximate candidates and Exact re-scores them before the top-k
// cut. Name labels the parallel-search counter; Buckets is recorded in
// SearchStats.BucketsProbed. Seed, exact hits found elsewhere, enters
// the first part's collector before it scans, so that part starts at
// their k-th distance and the merge ranks them with the scanned rows.
// Window bounds every part's collector (topk.NewWindow): the scan keeps
// the top k inside it. A windowed scan scores exactly: a cursor or a
// radius compared with approximate distances would misplace rows at
// the boundary.
type Fanout struct {
	Name                             string
	Exact                            *vec.Scorer
	Quant                            vec.QuantScorer
	RerankK, Tasks, Workers, Buckets int
	Seed                             []topk.Result
	Window                           topk.Window
}

// scanParts, when positive, replaces the part count of every fan-out.
// Only tests set it (SetScanParts), to sweep part counts the rule
// would not pick on their machine.
var scanParts int

// parts is the part count of a fan-out of tasks whose rule picks want:
// the count a test forced instead, if any, clamped to [1, tasks]. It is
// the most parts the fan-out runs in (Fanout.Search).
func parts(want, tasks int) int {
	if scanParts > 0 {
		want = scanParts
	}
	return max(min(want, tasks), 1)
}

// Search runs part over each of f's parts, each with its own Scan of q,
// then merges their collectors, re-ranks a scan of codes and records
// the query's work, buckets and partitions in p.Stats.
//
// The parts are split onto idle cores only: beyond the calling
// goroutine's own part, the scan cuts one more part per token of the
// worker pool it finds free, up to what the rule wants (parts), and
// runs them with pool.Run, the caller scanning beside its helpers. The
// parts its rule wanted but found no free token for are counted in
// obs.ScanPartsDeclined; under load the scan runs whole on its caller,
// allocating what an index probe does. A part count a test forced runs
// as forced.
//
// A part stops early only once the context's done channel has closed or
// its deadline has passed, both for good, so one check after the merge
// sees every early stop; the search then returns the context's error
// with the rows it did score counted.
func (f Fanout) Search(q []float32, k int, p *Params, part func(s *Scan, lo, hi int)) ([]topk.Result, error) {
	kk := k
	if f.RerankK > 0 {
		kk = f.RerankK
	}
	w := parts(f.Workers, f.Tasks)
	if w > 1 && scanParts == 0 {
		// The free tokens only size the split: pool.Run takes them
		// again for its helpers, and runs a part whose token another
		// fan-out took in between on the caller.
		free := pool.Default().TryAcquire(w - 1)
		pool.Default().Release(free)
		obs.ScanPartsDeclined.Add(int64(w - 1 - free))
		w = 1 + free
	}
	var merged *topk.Collector
	var work ScanWork
	if w == 1 {
		merged = f.collector(kk, 0)
		work = f.scan(q, p, merged, 0, f.Tasks, part)
	} else {
		obs.ParallelSearches.With(f.Name).Inc()
		merged, work = f.split(q, kk, p, w, part)
	}
	err := p.Err()
	var res []topk.Result
	if err == nil {
		res = merged.Results()
		if f.RerankK > 0 {
			work.Comps += int64(len(res))
			res = RerankExact(f.Exact, q, res, k)
		}
	}
	if p.Stats != nil {
		work.Record(p.Stats)
		p.Stats.BucketsProbed += int64(f.Buckets)
		p.Stats.Partitions += int64(w)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// scanPart is one part of a split scan: its collector and its work.
type scanPart struct {
	c    *topk.Collector
	work ScanWork
}

// split scans f's tasks in w contiguous parts, pool.Split's ranges, on
// the worker pool (pool.Run), and merges the parts' collectors and
// work in part order.
func (f Fanout) split(q []float32, k int, p *Params, w int, part func(s *Scan, lo, hi int)) (*topk.Collector, ScanWork) {
	parts := make([]scanPart, w)
	pool.Default().Run(w, func(i int) {
		c := f.collector(k, i)
		parts[i] = scanPart{c, f.scan(q, p, c, i*f.Tasks/w, (i+1)*f.Tasks/w, part)}
	})
	merged, work := parts[0].c, parts[0].work
	for _, pt := range parts[1:] {
		merged.Merge(pt.c)
		work.Add(pt.work)
	}
	return merged, work
}

// collector is part i's collector, windowed as f is: the first part's
// holds the seed.
func (f Fanout) collector(k, i int) *topk.Collector {
	c := topk.NewWindow(k, f.Window)
	if i == 0 {
		for _, r := range f.Seed {
			c.Push(r.ID, r.Dist)
		}
	}
	return c
}

// scan runs one part into c and returns its work.
func (f Fanout) scan(q []float32, p *Params, c *topk.Collector, lo, hi int, part func(s *Scan, lo, hi int)) ScanWork {
	s := newScan(f.Exact, f.Quant, q, p, c)
	part(s, lo, hi)
	s.flush()
	work := s.Work
	s.release()
	return work
}
