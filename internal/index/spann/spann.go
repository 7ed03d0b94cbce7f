// Package spann implements a SPANN-style disk index (Chen et al.,
// Section 2.2(2), "learning to hash" with k-means): centroids stay in
// RAM while each cluster's members live in an on-disk posting list.
// Two SPANN signatures are reproduced:
//
//   - closure multi-assignment: a vector near several cluster
//     boundaries is replicated into every cluster whose centroid is
//     within (1+eps) of its nearest, cutting boundary misses without
//     extra probes;
//   - posting-list I/O accounting: a query reads nprobe lists, each a
//     sequential run of pages, so E7 can report I/Os per query.
package spann

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync"

	"vdbms/internal/index"
	"vdbms/internal/kmeans"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// Config controls Build.
type Config struct {
	NList int // clusters; default sqrt(n)
	// ClosureEps is the multi-assignment slack: a vector joins every
	// cluster with dist <= (1+eps)^2 * bestDist. 0 disables closure.
	ClosureEps float64
	// MaxReplicas caps how many clusters one vector may join; default 4.
	MaxReplicas int
	PageSize    int // bytes per I/O unit; default 4096
	Seed        int64
	MaxIter     int
}

const magic = uint32(0x4e415053) // "SPAN"

// SPANN is the opened index.
type SPANN struct {
	cfg    Config
	f      *os.File
	dim    int
	n      int
	cents  *kmeans.Result
	starts []int64 // byte offset of each posting list
	counts []int32 // entries per posting list
	mu     sync.Mutex
}

// Build clusters the data, writes posting lists to path, and opens the
// index. Posting entries are (id, vector) pairs so a list read needs
// no further seeks.
func Build(data []float32, n, d int, path string, cfg Config) (*SPANN, error) {
	if d <= 0 || n <= 0 || len(data) < n*d {
		return nil, fmt.Errorf("spann: bad data shape n=%d d=%d len=%d", n, d, len(data))
	}
	if cfg.NList <= 0 {
		cfg.NList = int(math.Sqrt(float64(n))) + 1
	}
	if cfg.MaxReplicas <= 0 {
		cfg.MaxReplicas = 4
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 20
	}
	cents, err := kmeans.Train(data, n, d, kmeans.Config{K: cfg.NList, Seed: cfg.Seed, MaxIter: cfg.MaxIter})
	if err != nil {
		return nil, fmt.Errorf("spann: kmeans: %w", err)
	}
	// Assign with closure.
	lists := make([][]int32, cents.K)
	slack := (1 + cfg.ClosureEps) * (1 + cfg.ClosureEps)
	for id := 0; id < n; id++ {
		row := data[id*d : (id+1)*d]
		order := cents.NearestN(row, cfg.MaxReplicas)
		best := vec.SquaredL2(row, cents.Centroid(order[0]))
		lists[order[0]] = append(lists[order[0]], int32(id))
		if cfg.ClosureEps > 0 {
			for _, c := range order[1:] {
				dd := vec.SquaredL2(row, cents.Centroid(c))
				if float64(dd) <= slack*float64(best) {
					lists[c] = append(lists[c], int32(id))
				}
			}
		}
	}
	if err := writeLists(path, data, d, lists); err != nil {
		return nil, err
	}
	sp, err := Open(path, cfg)
	if err != nil {
		return nil, err
	}
	sp.cents = cents
	return sp, nil
}

// entrySize is the bytes per posting entry for dimension d.
func entrySize(d int) int { return 4 + d*4 }

func writeLists(path string, data []float32, d int, lists [][]int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// Header: magic, dim, nlists, then per-list (start, count) table,
	// then the lists.
	nl := len(lists)
	hdr := make([]byte, 12+nl*12)
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(d))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(nl))
	off := int64(len(hdr))
	for li, l := range lists {
		binary.LittleEndian.PutUint64(hdr[12+li*12:], uint64(off))
		binary.LittleEndian.PutUint32(hdr[12+li*12+8:], uint32(len(l)))
		off += int64(len(l) * entrySize(d))
	}
	if _, err := f.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, entrySize(d))
	for _, l := range lists {
		for _, id := range l {
			binary.LittleEndian.PutUint32(buf[0:], uint32(id))
			row := data[int(id)*d : (int(id)+1)*d]
			for j, x := range row {
				binary.LittleEndian.PutUint32(buf[4+j*4:], math.Float32bits(x))
			}
			if _, err := f.Write(buf); err != nil {
				return err
			}
		}
	}
	return f.Sync()
}

// Open maps the posting-list table. The caller must either come
// through Build (which injects centroids) or call SetCentroids.
func Open(path string, cfg Config) (*SPANN, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 12)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("spann: header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr) != magic {
		f.Close()
		return nil, fmt.Errorf("spann: %s is not a spann file", path)
	}
	d := int(binary.LittleEndian.Uint32(hdr[4:]))
	nl := int(binary.LittleEndian.Uint32(hdr[8:]))
	table := make([]byte, nl*12)
	if _, err := f.ReadAt(table, 12); err != nil {
		f.Close()
		return nil, err
	}
	sp := &SPANN{cfg: cfg, f: f, dim: d, starts: make([]int64, nl), counts: make([]int32, nl)}
	if sp.cfg.PageSize <= 0 {
		sp.cfg.PageSize = 4096
	}
	total := 0
	for li := 0; li < nl; li++ {
		sp.starts[li] = int64(binary.LittleEndian.Uint64(table[li*12:]))
		sp.counts[li] = int32(binary.LittleEndian.Uint32(table[li*12+8:]))
		total += int(sp.counts[li])
	}
	sp.n = total // includes replicas
	return sp, nil
}

// SetCentroids installs the in-memory navigation structure after Open.
func (sp *SPANN) SetCentroids(c *kmeans.Result) { sp.cents = c }

// Centroids returns the navigation structure (for persistence by the
// caller).
func (sp *SPANN) Centroids() *kmeans.Result { return sp.cents }

// Close releases the file.
func (sp *SPANN) Close() error { return sp.f.Close() }

// Name implements index.Index.
func (sp *SPANN) Name() string { return "spann" }

// Size implements index.Index (posting entries incl. replicas).
func (sp *SPANN) Size() int { return sp.n }

// ReplicationFactor reports posting entries per distinct vector id. It
// reads every posting list, so a failed read is returned.
func (sp *SPANN) ReplicationFactor() (float64, error) {
	seen := map[int32]struct{}{}
	for li := range sp.starts {
		es, _, err := sp.readList(li)
		if err != nil {
			return 0, err
		}
		for _, e := range es {
			seen[e.id] = struct{}{}
		}
	}
	if len(seen) == 0 {
		return 0, nil
	}
	return float64(sp.n) / float64(len(seen)), nil
}

type entry struct {
	id  int32
	vec []float32
}

// readList reads one posting list and reports the ceil(bytes/PageSize)
// page I/Os it cost. A failed read (a truncated or unreadable file) is
// returned, never panicked on.
func (sp *SPANN) readList(li int) ([]entry, int64, error) {
	cnt := int(sp.counts[li])
	if cnt == 0 {
		return nil, 0, nil
	}
	es := entrySize(sp.dim)
	buf := make([]byte, cnt*es)
	sp.mu.Lock()
	if _, err := sp.f.ReadAt(buf, sp.starts[li]); err != nil {
		sp.mu.Unlock()
		return nil, 0, fmt.Errorf("spann: list %d: %w", li, err)
	}
	sp.mu.Unlock()
	pages := (len(buf) + sp.cfg.PageSize - 1) / sp.cfg.PageSize
	out := make([]entry, cnt)
	for i := 0; i < cnt; i++ {
		rec := buf[i*es : (i+1)*es]
		v := make([]float32, sp.dim)
		for j := range v {
			v[j] = math.Float32frombits(binary.LittleEndian.Uint32(rec[4+j*4:]))
		}
		out[i] = entry{id: int32(binary.LittleEndian.Uint32(rec)), vec: v}
	}
	return out, int64(pages), nil
}

// Search implements index.Index: probe the p.NProbe nearest centroids
// (default 4), read their posting lists, re-rank exactly, dedupe
// replicas. p.Stats receives the distances, the lists probed and the
// pages read.
func (sp *SPANN) Search(q []float32, k int, p index.Params) ([]topk.Result, error) {
	if err := index.CheckQuery(q, k, sp.dim); err != nil {
		return nil, err
	}
	if sp.cents == nil {
		return nil, fmt.Errorf("spann: centroids not loaded; call SetCentroids")
	}
	nprobe := p.NProbe
	if nprobe <= 0 {
		nprobe = 4
	}
	st := p.Stats
	if st == nil {
		st = new(index.SearchStats)
	}
	c := topk.NewCollector(k)
	seen := map[int32]struct{}{}
	for _, li := range sp.cents.NearestN(q, nprobe) {
		es, pages, err := sp.readList(li)
		st.BucketsProbed++
		st.IOReads += pages
		if err != nil {
			return nil, err
		}
		for _, e := range es {
			if _, dup := seen[e.id]; dup {
				continue
			}
			seen[e.id] = struct{}{}
			if !p.Admits(int64(e.id)) {
				continue
			}
			st.DistanceComps++
			c.Push(int64(e.id), vec.SquaredL2(q, e.vec))
		}
	}
	return c.Results(), nil
}
