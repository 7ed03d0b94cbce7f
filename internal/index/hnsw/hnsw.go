// Package hnsw implements the hierarchical navigable small world graph
// of Malkov & Yashunin (Section 2.2(3)). Each node draws a maximum
// layer from an exponentially decaying distribution; upper layers form
// progressively sparser graphs traversed greedily to find a good entry
// point, and the bottom layer is beam-searched. Neighbor selection
// uses either the paper's pruning heuristic (RobustPrune with α=1) or
// naive k-closest, ablated in E6.
package hnsw

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"vdbms/internal/index"
	"vdbms/internal/index/graph"
	"vdbms/internal/pool"
	"vdbms/internal/topk"
	"vdbms/internal/tuner"
	"vdbms/internal/vec"
)

// Config controls construction.
type Config struct {
	M           int // max neighbors per node per layer; default DefaultM
	EfConstruct int // construction beam width; default DefaultEfConstruct(M)
	// NaiveSelection replaces the pruning heuristic (RobustPrune α=1)
	// with plain k-closest selection (E6 ablation).
	NaiveSelection bool
	Seed           int64
	Metric         vec.Metric
	// Quant, when enabled, stores a compressed copy of the vectors and
	// scores beam-search candidates on codes; the top rerank_k results
	// are re-scored with exact float32 distances (see index.QuantSpec).
	// The graph itself is always built at full precision.
	Quant index.QuantSpec
}

// builder is the state of one construction: the layers the inserts
// grow, mutable until Build freezes them for serving.
type builder struct {
	cfg    Config
	n      int
	s      *graph.Searcher
	layers []graph.Adjacency
	levels []int8 // each node's top layer, drawn in id order
	entry  int32
	maxLv  int
	// changed[l][v] is 1 + the id of the last node whose commit changed
	// v's list on layer l, and entryChanged 1 + the id of the last one
	// that moved the entry point and the top layer. A speculative build
	// keeps them to find the searches a commit made stale.
	changed      [][]int32
	entryChanged int32
	searches     int // the inserts' searches, re-searches included
}

// DefaultM is the M Build uses when Config.M is 0.
const DefaultM = 12

// DefaultEfConstruct is the construction beam width Build uses for M
// when Config.EfConstruct is 0.
func DefaultEfConstruct(m int) int { return 4 * m }

// width is the number of nodes a parallel build searches at once (see
// speculate). The tests vary it; 1 builds serially.
var width = 4

// spins is how many times an idle helper yields for the next round
// before it parks: 1.5-2 ms on a 2-vCPU Xeon, well above the 50-100 µs
// a round's last search and its commits take there. At 1 000 a helper
// parked in up to a quarter of the rounds, and the 20 000-row build took
// 1.0-1.1 s against 0.70-0.74 s at 10 000.
const spins = 10000

// Build inserts all vectors, then serves the frozen layers from the
// top layer's entry node.
func Build(data []float32, n, d int, cfg Config) (*graph.Index, error) {
	h, err := newBuilder(data, n, d, cfg)
	if err != nil {
		return nil, err
	}
	h.run()
	return graph.NewIndex("hnsw", h.s, h.layers, []int32{h.entry}, h.cfg.Quant)
}

// newBuilder checks the shape, resolves cfg's defaults and draws every
// node's level, in id order: randomLevel is the seeded rng's only use,
// so the levels do not depend on how the inserts are scheduled.
func newBuilder(data []float32, n, d int, cfg Config) (*builder, error) {
	if cfg.M <= 0 {
		cfg.M = DefaultM
	}
	if cfg.M == 1 {
		// The level multiplier 1/ln M needs M >= 2: at 1 every level
		// draw overflowed and the graph came out with no layers.
		cfg.M = 2
	}
	if cfg.EfConstruct <= 0 {
		cfg.EfConstruct = DefaultEfConstruct(cfg.M)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	s, err := graph.NewSearcher("hnsw", cfg.Metric, data, n, d)
	if err != nil {
		return nil, err
	}
	h := &builder{cfg: cfg, n: n, s: s, levels: make([]int8, n)}
	ml := 1 / math.Log(float64(cfg.M))
	rng := rand.New(rand.NewSource(cfg.Seed))
	top := 0
	for id := range h.levels {
		lv := randomLevel(rng, ml)
		h.levels[id] = int8(lv)
		top = max(top, lv)
	}
	h.layers = make([]graph.Adjacency, top+1)
	for l := range h.layers {
		h.layers[l] = make(graph.Adjacency, n)
	}
	h.maxLv = int(h.levels[0]) // node 0 is the first entry
	return h, nil
}

func randomLevel(rng *rand.Rand, ml float64) int {
	lv := int(-math.Log(rng.Float64()+1e-12) * ml)
	if lv > 30 {
		lv = 30
	}
	return lv
}

// run inserts nodes 1..n-1 in id order. With pool tokens free for
// helpers — cores that no exact scan, scan part or other build holds — it
// runs the speculative batches, whose graph is the serial one edge for
// edge, each helper holding its token until the build ends; without,
// the plain serial loop on the caller.
func (h *builder) run() {
	helpers := 0
	if width > 1 {
		helpers = pool.Default().TryAcquire(min(width, runtime.GOMAXPROCS(0)) - 1)
	}
	if helpers == 0 {
		var p plan
		for id := 1; id < h.n; id++ {
			p.id = int32(id)
			h.search(&p, false)
			h.commit(&p)
		}
		h.searches = h.n - 1
		return
	}
	defer pool.Default().Release(helpers)
	c := &crew{h: h}
	c.wake = sync.NewCond(&c.mu)
	c.wg.Add(helpers)
	for range helpers {
		go c.help()
	}
	defer c.stop()
	h.speculate(c)
}

// plan is one node's insert, searched but not committed: the neighbours
// it selects on each layer it joins, and what its search read.
type plan struct {
	id   int32
	nbrs [][]int32 // by layer, from 0 up to min(level, maxLv)
	// base is the first node not committed when the search ran, and top
	// the maxLv it descended from. rec.reads lists the nodes whose lists
	// the search read (when recorded), layer by layer from top down;
	// ends[i] is where layer top-i's part of it ends.
	base int32
	top  int
	rec  recorder
	ends []int
}

// recorder serves one layer to a search and appends to reads every node
// whose list the search reads: each node a walk stands on and each node
// a beam search expands. A search is a function of the lists it reads.
type recorder struct {
	graph.Adjacency
	reads []int32
}

func (r *recorder) Neighbors(id int32) []int32 {
	r.reads = append(r.reads, id)
	return r.Adjacency[id]
}

// search finds p's neighbours in the graph as it stands: the greedy
// descent through the layers above the node's own, then a beam search
// and neighbour selection on each layer from min(level, maxLv) down.
// It reads the graph and writes only p, so searches may run together
// while no commit does.
func (h *builder) search(p *plan, record bool) {
	id := p.id
	lv := int(h.levels[id])
	p.top = h.maxLv
	p.rec.reads, p.ends = p.rec.reads[:0], p.ends[:0]
	layer := func(l int) graph.Neighborhoods {
		if !record {
			return h.layers[l]
		}
		p.rec.Adjacency = h.layers[l]
		return &p.rec
	}
	// One traversal scratch serves the whole search; the pool hands the
	// next search the same one.
	t := h.s.Begin(h.s.Row(id))
	defer t.End(nil)
	// The entry is scored once: each layer starts from the scored
	// node(s) the layer above ended on.
	ep := t.Score([]int32{h.entry})[0]
	for l := h.maxLv; l > lv; l-- {
		ep = t.GreedyWalk(layer(l), ep)
		p.ends = append(p.ends, len(p.rec.reads))
	}
	top := min(lv, h.maxLv)
	p.nbrs = slices.Grow(p.nbrs[:0], top+1)[:top+1]
	entries := []topk.Result{ep}
	for l := top; l >= 0; l-- {
		found, _ := t.BeamSearch(layer(l), entries, h.cfg.EfConstruct, h.cfg.EfConstruct, &index.Params{}) // no Ctx: cannot fail
		p.ends = append(p.ends, len(p.rec.reads))
		if h.cfg.NaiveSelection {
			p.nbrs[l] = graph.TopKClosest(found, h.degree(l), id)
		} else {
			p.nbrs[l] = graph.RobustPrune(h.s, id, found, h.degree(l), 1.0)
		}
		// Next layer starts from this layer's results, scored; never
		// empty, since the entries were candidates too.
		entries = found
	}
}

// degree is the most neighbours a node keeps on layer l: standard HNSW
// allows 2M at the base layer.
func (h *builder) degree(l int) int {
	if l == 0 {
		return 2 * h.cfg.M
	}
	return h.cfg.M
}

// commit links p's node into the graph: its own lists, the backlinks,
// shrinking the lists they overfill, and the entry point when the node
// tops the graph.
func (h *builder) commit(p *plan) {
	id := p.id
	for l := len(p.nbrs) - 1; l >= 0; l-- {
		m := h.degree(l)
		h.layers[l][id] = p.nbrs[l]
		for _, nb := range p.nbrs[l] {
			h.layers[l][nb] = append(h.layers[l][nb], id)
			if len(h.layers[l][nb]) > m {
				h.shrink(l, nb, m)
			}
			if h.changed != nil {
				h.changed[l][nb] = id + 1
			}
		}
	}
	if lv := int(h.levels[id]); lv > h.maxLv {
		h.maxLv = lv
		h.entry = id
		h.entryChanged = id + 1
	}
}

// shrink re-selects neighbors for an over-full node.
func (h *builder) shrink(l int, id int32, m int) {
	nbrs := h.layers[l][id]
	cands := make([]topk.Result, 0, len(nbrs))
	for _, nb := range nbrs {
		cands = append(cands, topk.Result{ID: int64(nb), Dist: h.s.DistRows(id, nb)})
	}
	graph.SortByDist(cands)
	if h.cfg.NaiveSelection {
		h.layers[l][id] = graph.TopKClosest(cands, m, id)
	} else {
		h.layers[l][id] = graph.RobustPrune(h.s, id, cands, m, 1.0)
	}
}

// speculate inserts the nodes width at a time. Each round searches the
// batch's pending plans in parallel against the graph as it stands, then
// commits plans in id order up to the first stale one: a plan whose
// search read a list that a commit since changed, or began from an entry
// point or top layer a commit since moved. A search is a function of the
// lists it read, so every committed plan is the one the serial loop
// would have searched, and the graph is the serial graph edge for edge.
// The stale plans are searched again in the next round. The first
// uncommitted plan is always searched against the current graph, so
// every round commits at least one node.
func (h *builder) speculate(c *crew) {
	h.changed = make([][]int32, len(h.layers))
	for l := range h.changed {
		h.changed[l] = make([]int32, h.n)
	}
	plans := make([]plan, width)
	pending := make([]*plan, 0, width)
	for next := 1; next < h.n; {
		batch := plans[:min(width, h.n-next)]
		pending = pending[:0]
		for i := range batch {
			batch[i].id = int32(next + i)
			pending = append(pending, &batch[i])
		}
		for len(batch) > 0 {
			for _, p := range pending {
				p.base = int32(next)
			}
			c.run(pending)
			h.searches += len(pending)
			k := 0
			for k < len(batch) && !h.stale(&batch[k]) {
				h.commit(&batch[k])
				k++
			}
			next += k
			batch = batch[k:]
			pending = pending[:0]
			for i := range batch {
				if h.stale(&batch[i]) {
					pending = append(pending, &batch[i])
				}
			}
		}
	}
}

// stale reports whether a commit since p's search changed what it read.
func (h *builder) stale(p *plan) bool {
	if h.entryChanged > p.base {
		return true
	}
	from := 0
	for i, end := range p.ends {
		changed := h.changed[p.top-i]
		for _, v := range p.rec.reads[from:end] {
			if changed[v] > p.base {
				return true
			}
		}
		from = end
	}
	return false
}

// crew is the helpers of a speculative build: goroutines that each hold
// a pool token for the length of the build and search each round's plans
// beside the building goroutine. Between rounds they spin a while, then
// park until the next one. A round is handed over through one atomic
// pointer, which orders a round's searches after the commits before it,
// and the builder waits on the round's done count, which orders its next
// commits after the searches.
type crew struct {
	h      *builder
	round  atomic.Pointer[round]
	parked atomic.Int32
	mu     sync.Mutex
	wake   *sync.Cond // signalled under mu when a round is published
	wg     sync.WaitGroup
}

// round is one parallel step: the plans to search, handed out in turn by
// claim, and how many are done. A round without plans stops the helpers.
type round struct {
	plans []*plan
	claim atomic.Int32
	done  atomic.Int32
}

// run searches plans on the helpers and this goroutine, and returns when
// every one is done.
func (c *crew) run(plans []*plan) {
	r := &round{plans: plans}
	c.publish(r)
	c.work(r)
	for int(r.done.Load()) < len(plans) {
		runtime.Gosched()
	}
}

// stop ends the helpers and waits for them to exit.
func (c *crew) stop() {
	c.publish(&round{})
	c.wg.Wait()
}

func (c *crew) publish(r *round) {
	c.round.Store(r)
	// A helper counts itself parked before it last looks at round, so
	// either it sees r or the broadcast below finds it waiting.
	if c.parked.Load() > 0 {
		c.mu.Lock()
		c.wake.Broadcast()
		c.mu.Unlock()
	}
}

func (c *crew) help() {
	defer c.wg.Done()
	var last *round
	for {
		r := c.await(last)
		if r.plans == nil {
			return
		}
		c.work(r)
		last = r
	}
}

// await returns the first round published after last.
func (c *crew) await(last *round) *round {
	for range spins {
		if r := c.round.Load(); r != last {
			return r
		}
		runtime.Gosched()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.parked.Add(1)
	defer c.parked.Add(-1)
	for {
		if r := c.round.Load(); r != last {
			return r
		}
		c.wake.Wait()
	}
}

// work searches the round's plans until none is left to claim.
func (c *crew) work(r *round) {
	for {
		i := int(r.claim.Add(1)) - 1
		if i >= len(r.plans) {
			return
		}
		c.h.search(r.plans[i], true)
		r.done.Add(1)
	}
}

func init() {
	options := append([]index.Option{{Name: "m", Max: 256}, {Name: "efc", Max: 4096}, {Name: "naive", Max: 1}, index.SeedOption}, index.QuantOptions...)
	index.Register(index.Family{Name: "hnsw", Knob: tuner.KnobEf, Metrics: index.AnyMetric, Options: options, Build: func(data []float32, n, d int, metric vec.Metric, opts map[string]int) (index.Index, error) {
		return Build(data, n, d, Config{M: opts["m"], EfConstruct: opts["efc"], NaiveSelection: opts["naive"] != 0, Seed: int64(opts["seed"]), Metric: metric, Quant: index.QuantSpecOf(opts)})
	}})
}
