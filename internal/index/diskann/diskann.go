// Package diskann implements a disk-resident Vamana graph in the style
// of DiskANN (Subramanya et al., Section 2.2(2)). The file holds one
// fixed-size record per node (full vector + adjacency list); RAM holds
// only the PQ codes of all vectors plus the codebooks. Search is the
// DiskANN beam search: PQ asymmetric distances steer the frontier, and
// every expanded node costs one record read (counted, LRU-cached)
// that yields both its exact vector for re-ranking and its neighbors.
package diskann

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync"

	"vdbms/internal/index"
	"vdbms/internal/index/graph"
	"vdbms/internal/index/nsg"
	"vdbms/internal/quant"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// Config controls Build.
type Config struct {
	R     int     // graph degree; default 16
	L     int     // construction beam; default 2R
	Alpha float32 // Vamana alpha; default 1.2
	Beam  int     // search beam width (records read per hop); default 4
	PQM   int     // PQ subquantizers for the in-RAM codes; default d/2 capped at 16
	PQKs  int     // centroids per subquantizer; default 256 (1 byte/sub-code)
	Seed  int64
	// CachePages sizes the record LRU cache (0 disables).
	CachePages int
	// NoPQ disables PQ guidance (ablation): neighbor distances then
	// require reading each neighbor's record, multiplying I/Os.
	NoPQ bool
}

const magic = uint32(0x4441564d) // "MVAD"

// DiskANN is the opened index.
type DiskANN struct {
	cfg     Config
	f       *os.File
	dim     int
	n       int
	r       int
	medoid  int32
	recSize int
	dataOff int64
	pq      *quant.PQ
	codes   []byte // n * M, in RAM
	mu      sync.Mutex
	cache   *recordCache
}

// Build constructs the Vamana graph in memory, trains the PQ codes,
// writes the disk layout to path, and returns the opened index.
func Build(data []float32, n, d int, path string, cfg Config) (*DiskANN, error) {
	if cfg.R <= 0 {
		cfg.R = 16
	}
	if cfg.L <= 0 {
		cfg.L = 2 * cfg.R
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 1.2
	}
	if cfg.Beam <= 0 {
		cfg.Beam = 4
	}
	if cfg.PQKs <= 0 {
		cfg.PQKs = 256
	}
	if cfg.PQM <= 0 {
		cfg.PQM = pickPQM(d)
	}
	g, err := nsg.Build(data, n, d, nsg.Config{
		Variant: nsg.Vamana, R: cfg.R, L: cfg.L, Alpha: cfg.Alpha, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("diskann: graph build: %w", err)
	}
	pq, err := quant.TrainPQ(data, n, d, quant.PQConfig{M: cfg.PQM, Ks: cfg.PQKs, Seed: cfg.Seed + 7, MaxIter: 15})
	if err != nil {
		return nil, fmt.Errorf("diskann: pq train: %w", err)
	}
	if err := writeLayout(path, data, n, d, cfg.R, g, pq); err != nil {
		return nil, err
	}
	return Open(path, cfg)
}

func pickPQM(d int) int {
	m := d / 2
	if m > 16 {
		m = 16
	}
	for m > 1 && d%m != 0 {
		m--
	}
	if m < 1 {
		m = 1
	}
	return m
}

// writeLayout serializes header, PQ codebooks, PQ codes, and the
// per-node records (vector + padded adjacency).
func writeLayout(path string, data []float32, n, d, r int, g *graph.Index, pq *quant.PQ) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := func(vals ...uint32) error {
		buf := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(buf[i*4:], v)
		}
		_, err := f.Write(buf)
		return err
	}
	if err := w(magic, uint32(n), uint32(d), uint32(r), uint32(g.Entries()[0]), uint32(pq.M), uint32(pq.Ks), uint32(pq.Dsub)); err != nil {
		return err
	}
	// Codebooks.
	cb := make([]byte, 4)
	for m := 0; m < pq.M; m++ {
		for _, x := range pq.Codebooks[m] {
			binary.LittleEndian.PutUint32(cb, math.Float32bits(x))
			if _, err := f.Write(cb); err != nil {
				return err
			}
		}
	}
	// Codes.
	codes := make([]byte, n*pq.M)
	for id := 0; id < n; id++ {
		pq.Encode(data[id*d:(id+1)*d], codes[id*pq.M:(id+1)*pq.M])
	}
	if _, err := f.Write(codes); err != nil {
		return err
	}
	// Records: vector (d float32) + degree (uint32) + R neighbor ids.
	base := g.Layers()[0]
	rec := make([]byte, recordSize(d, r))
	for id := 0; id < n; id++ {
		for i := range rec {
			rec[i] = 0
		}
		row := data[id*d : (id+1)*d]
		for j, x := range row {
			binary.LittleEndian.PutUint32(rec[j*4:], math.Float32bits(x))
		}
		nbrs := base.Neighbors(int32(id))
		if len(nbrs) > r {
			nbrs = nbrs[:r]
		}
		binary.LittleEndian.PutUint32(rec[d*4:], uint32(len(nbrs)))
		for j, nb := range nbrs {
			binary.LittleEndian.PutUint32(rec[d*4+4+j*4:], uint32(nb))
		}
		if _, err := f.Write(rec); err != nil {
			return err
		}
	}
	return f.Sync()
}

func recordSize(d, r int) int { return d*4 + 4 + r*4 }

// Open loads the header, codebooks and codes into RAM and prepares the
// record reader.
func Open(path string, cfg Config) (*DiskANN, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 32)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("diskann: header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr) != magic {
		f.Close()
		return nil, fmt.Errorf("diskann: %s is not a diskann file", path)
	}
	da := &DiskANN{
		cfg:    cfg,
		f:      f,
		n:      int(binary.LittleEndian.Uint32(hdr[4:])),
		dim:    int(binary.LittleEndian.Uint32(hdr[8:])),
		r:      int(binary.LittleEndian.Uint32(hdr[12:])),
		medoid: int32(binary.LittleEndian.Uint32(hdr[16:])),
	}
	m := int(binary.LittleEndian.Uint32(hdr[20:]))
	ks := int(binary.LittleEndian.Uint32(hdr[24:]))
	dsub := int(binary.LittleEndian.Uint32(hdr[28:]))
	pq := &quant.PQ{Dim: da.dim, M: m, Ks: ks, Dsub: dsub, Codebooks: make([][]float32, m)}
	off := int64(32)
	cbBytes := make([]byte, ks*dsub*4)
	for mi := 0; mi < m; mi++ {
		if _, err := f.ReadAt(cbBytes, off); err != nil {
			f.Close()
			return nil, err
		}
		cb := make([]float32, ks*dsub)
		for i := range cb {
			cb[i] = math.Float32frombits(binary.LittleEndian.Uint32(cbBytes[i*4:]))
		}
		pq.Codebooks[mi] = cb
		off += int64(len(cbBytes))
	}
	da.pq = pq
	da.codes = make([]byte, da.n*m)
	if _, err := f.ReadAt(da.codes, off); err != nil {
		f.Close()
		return nil, err
	}
	off += int64(len(da.codes))
	da.dataOff = off
	da.recSize = recordSize(da.dim, da.r)
	if cfg.CachePages > 0 {
		da.cache = newRecordCache(cfg.CachePages)
	}
	if cfg.Beam <= 0 {
		da.cfg.Beam = 4
	}
	return da, nil
}

// Close releases the file.
func (da *DiskANN) Close() error { return da.f.Close() }

// Name implements index.Index.
func (da *DiskANN) Name() string { return "diskann" }

// Size implements index.Index.
func (da *DiskANN) Size() int { return da.n }

// readRecord fetches node id's vector and neighbors (one I/O on cache
// miss), counting the read into st as an IOReads or a CacheHits. A
// failed read (a truncated or unreadable file) is returned, never
// panicked on.
func (da *DiskANN) readRecord(id int32, st *index.SearchStats) ([]float32, []int32, error) {
	da.mu.Lock()
	defer da.mu.Unlock()
	if da.cache != nil {
		if r, ok := da.cache.get(id); ok {
			st.CacheHits++
			return r.vec, r.nbrs, nil
		}
	}
	buf := make([]byte, da.recSize)
	if _, err := da.f.ReadAt(buf, da.dataOff+int64(id)*int64(da.recSize)); err != nil {
		return nil, nil, fmt.Errorf("diskann: record %d: %w", id, err)
	}
	st.IOReads++
	v := make([]float32, da.dim)
	for j := range v {
		v[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[j*4:]))
	}
	deg := int(binary.LittleEndian.Uint32(buf[da.dim*4:]))
	if deg > da.r {
		deg = da.r
	}
	nbrs := make([]int32, deg)
	for j := 0; j < deg; j++ {
		nbrs[j] = int32(binary.LittleEndian.Uint32(buf[da.dim*4+4+j*4:]))
	}
	if da.cache != nil {
		da.cache.put(id, record{v, nbrs})
	}
	return v, nbrs, nil
}

// Search implements index.Index with DiskANN beam search: the frontier
// is ordered by PQ approximate distance; each hop expands up to Beam
// best unvisited candidates with one record read each, re-ranking them
// exactly from the on-disk vector. p.Stats receives the exact
// distances (PQ table lookups are not counted), the nodes reached, and
// the record reads split into disk reads and cache hits.
func (da *DiskANN) Search(q []float32, k int, p index.Params) ([]topk.Result, error) {
	if err := index.CheckQuery(q, k, da.dim); err != nil {
		return nil, err
	}
	ef := p.Ef
	if ef < k {
		ef = 4 * k
		if ef < 32 {
			ef = 32
		}
	}
	st := p.Stats
	if st == nil {
		st = new(index.SearchStats)
	}
	var approx func(id int32) (float32, error)
	if da.cfg.NoPQ {
		// Ablation: approximate distance requires reading the record.
		approx = func(id int32) (float32, error) {
			v, _, err := da.readRecord(id, st)
			if err != nil {
				return 0, err
			}
			st.DistanceComps++
			return vec.SquaredL2(q, v), nil
		}
	} else {
		tab := da.pq.ADC(q)
		approx = func(id int32) (float32, error) {
			return tab.Distance(da.codes[int(id)*da.pq.M : (int(id)+1)*da.pq.M]), nil
		}
	}
	visited := map[int32]struct{}{da.medoid: {}}
	var frontier topk.MinQueue
	d0, err := approx(da.medoid)
	if err != nil {
		return nil, err
	}
	frontier.Push(int64(da.medoid), d0)
	exact := topk.NewCollector(ef)
	// beamBound tracks the ef best APPROXIMATE distances of expanded
	// nodes. Pruning must compare like with like: mixing PQ-space and
	// exact-space distances makes biased PQ estimates look prunable
	// and collapses recall.
	beamBound := topk.NewCollector(ef)
	for frontier.Len() > 0 {
		// Expand up to Beam best candidates this hop.
		expanded := 0
		stop := true
		for frontier.Len() > 0 && expanded < da.cfg.Beam {
			cand := frontier.Pop()
			if beamBound.Full() && cand.Dist > beamBound.Worst() {
				continue
			}
			stop = false
			v, nbrs, err := da.readRecord(int32(cand.ID), st)
			if err != nil {
				return nil, err
			}
			d := vec.SquaredL2(q, v)
			st.DistanceComps++
			beamBound.Push(cand.ID, cand.Dist)
			if p.Admits(cand.ID) {
				exact.Push(cand.ID, d)
			}
			for _, nb := range nbrs {
				if _, dup := visited[nb]; dup {
					continue
				}
				visited[nb] = struct{}{}
				dn, err := approx(nb)
				if err != nil {
					return nil, err
				}
				frontier.Push(int64(nb), dn)
			}
			expanded++
		}
		if stop {
			break
		}
	}
	st.NodesVisited += int64(len(visited))
	res := exact.Results()
	if len(res) > k {
		res = res[:k]
	}
	return res, nil
}

type record struct {
	vec  []float32
	nbrs []int32
}

type recordCache struct {
	cap   int
	m     map[int32]*rcNode
	head  *rcNode
	tail  *rcNode
	count int
}

type rcNode struct {
	key        int32
	rec        record
	prev, next *rcNode
}

func newRecordCache(capacity int) *recordCache {
	return &recordCache{cap: capacity, m: make(map[int32]*rcNode, capacity)}
}

func (c *recordCache) get(key int32) (record, bool) {
	n, ok := c.m[key]
	if !ok {
		return record{}, false
	}
	c.front(n)
	return n.rec, true
}

func (c *recordCache) put(key int32, rec record) {
	if n, ok := c.m[key]; ok {
		n.rec = rec
		c.front(n)
		return
	}
	n := &rcNode{key: key, rec: rec, next: c.head}
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
	c.m[key] = n
	c.count++
	if c.count > c.cap {
		ev := c.tail
		c.tail = ev.prev
		if c.tail != nil {
			c.tail.next = nil
		} else {
			c.head = nil
		}
		delete(c.m, ev.key)
		c.count--
	}
}

func (c *recordCache) front(n *rcNode) {
	if c.head == n {
		return
	}
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if c.tail == n {
		c.tail = n.prev
	}
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
}
