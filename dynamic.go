package vdbms

import (
	"fmt"

	"vdbms/internal/index"
	"vdbms/internal/index/hnsw"
	"vdbms/internal/index/ivf"
	"vdbms/internal/lsm"
	"vdbms/internal/vec"
)

// DynamicConfig configures an LSM-backed collection tuned for
// high-write workloads (out-of-place updates, Section 2.3(3)).
type DynamicConfig struct {
	// Dim is the vector dimensionality (required).
	Dim int
	// Metric is the similarity score name; default "l2".
	Metric string
	// MemtableSize is the number of buffered writes before the
	// memtable is sealed into an indexed segment; default 1024.
	MemtableSize int
	// MaxSegments triggers compaction; default 8.
	MaxSegments int
	// SegmentIndex selects the per-segment index family: "hnsw"
	// (default) or "ivfflat".
	SegmentIndex string
	// Parallelism is the intra-query worker count: searches fan out
	// over the memtable and sealed segments concurrently. 0 uses every
	// CPU (GOMAXPROCS), 1 searches serially. Results are identical at
	// every setting.
	Parallelism int
	// Quantization stores segment index vectors as codes ("sq8", "pq",
	// "opq"; "" or "none" disables). Segment searches scan codes and
	// re-rank the top RerankK candidates at full precision. Only hnsw
	// segments support it.
	Quantization string
	// RerankK is the approximate candidate count re-scored exactly per
	// segment search when Quantization is set; 0 picks max(4k, 32).
	RerankK int
}

// Dynamic is an updatable collection: upserts and deletes are cheap
// and never rebuild existing segment indexes; searches merge the
// memtable with every sealed segment.
//
// Segment index builds (flush and compaction) run off the data lock:
// searches and concurrent writers proceed while a build is in flight,
// with freshly sealed rows served by exact scan until their index
// installs. Maintenance itself is single-flight — concurrent Flush or
// Compact calls serialize, and only the writer whose Upsert filled the
// memtable waits for the seal it triggered.
type Dynamic struct {
	inner *lsm.Collection
}

// OpenDynamic creates an empty dynamic collection.
func OpenDynamic(cfg DynamicConfig) (*Dynamic, error) {
	metric := cfg.Metric
	if metric == "" {
		metric = "l2"
	}
	m, err := vec.ParseMetric(metric)
	if err != nil {
		return nil, err
	}
	qkind, err := index.ParseQuantKind(cfg.Quantization)
	if err != nil {
		return nil, err
	}
	spec := index.QuantSpec{Kind: qkind, RerankK: cfg.RerankK}
	var builder lsm.IndexBuilder
	switch cfg.SegmentIndex {
	case "", "hnsw":
		builder = func(data []float32, n, d int) (index.Index, error) {
			return hnsw.Build(data, n, d, hnsw.Config{M: 8, Seed: 1, Metric: m, Quant: spec})
		}
	case "ivfflat":
		if spec.Enabled() {
			return nil, fmt.Errorf("vdbms: quantization requires hnsw segments")
		}
		// The segment builder must carry the collection metric: an
		// unconfigured ivf.Config scores lists under L2, silently
		// mis-ranking cosine and inner-product collections.
		builder = func(data []float32, n, d int) (index.Index, error) {
			return ivf.Build(data, n, d, ivf.Config{Seed: 1, Metric: m})
		}
	default:
		return nil, fmt.Errorf("vdbms: unknown segment index %q", cfg.SegmentIndex)
	}
	inner, err := lsm.New(lsm.Config{
		Dim:          cfg.Dim,
		MemtableSize: cfg.MemtableSize,
		MaxSegments:  cfg.MaxSegments,
		Metric:       m,
		Builder:      builder,
		Parallelism:  cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return &Dynamic{inner: inner}, nil
}

// Upsert inserts or replaces the vector stored under id.
func (d *Dynamic) Upsert(id int64, v []float32) error { return d.inner.Upsert(id, v) }

// Delete hides id from future searches; false if id was absent.
func (d *Dynamic) Delete(id int64) bool { return d.inner.Delete(id) }

// Get returns the current vector for id.
func (d *Dynamic) Get(id int64) ([]float32, bool) { return d.inner.Get(id) }

// Len returns the live vector count.
func (d *Dynamic) Len() int { return d.inner.Len() }

// Segments returns the sealed segment count.
func (d *Dynamic) Segments() int { return d.inner.Segments() }

// Flush seals the memtable into a segment immediately. The segment's
// index is built without blocking reads or writes; its rows stay
// searchable (by exact scan) throughout.
func (d *Dynamic) Flush() error { return d.inner.Flush() }

// Compact merges segments and drops deleted rows.
func (d *Dynamic) Compact() error { return d.inner.Compact() }

// Search returns the k nearest live vectors; ef tunes segment index
// beam width (0 = default).
func (d *Dynamic) Search(q []float32, k, ef int) ([]Hit, error) {
	return d.inner.Search(q, k, ef, nil)
}
