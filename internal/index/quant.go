package index

import (
	"fmt"
	"maps"

	"vdbms/internal/quant"
	"vdbms/internal/vec"
)

// QuantKind selects the compressed-scan codec an index stores beside
// (or instead of) full-precision rows for candidate generation.
type QuantKind int

const (
	// QuantNone scans full-precision float32 rows.
	QuantNone QuantKind = iota
	// QuantSQ8 stores one byte per dimension (scalar quantization)
	// and scans with a per-query d×256 LUT. Supports l2/ip/cosine.
	QuantSQ8
	// QuantPQ stores product-quantization codes and scans with a
	// per-query ADC table (4-bit fast-scan when ks ≤ 16). L2 only.
	QuantPQ
	// QuantOPQ is QuantPQ behind a learned rotation. L2 only.
	QuantOPQ
)

// String returns the schema-level name ("none", "sq8", "pq", "opq").
func (k QuantKind) String() string {
	switch k {
	case QuantNone:
		return "none"
	case QuantSQ8:
		return "sq8"
	case QuantPQ:
		return "pq"
	case QuantOPQ:
		return "opq"
	default:
		return fmt.Sprintf("quant(%d)", int(k))
	}
}

// ParseQuantKind converts a schema-level quantization name. The empty
// string means none.
func ParseQuantKind(s string) (QuantKind, error) {
	switch s {
	case "", "none":
		return QuantNone, nil
	case "sq8":
		return QuantSQ8, nil
	case "pq":
		return QuantPQ, nil
	case "opq":
		return QuantOPQ, nil
	}
	return 0, fmt.Errorf("index: unknown quantization %q (want none|sq8|pq|opq)", s)
}

// QuantSpec is the per-index quantization recipe carried through the
// integer opts map (so it persists in WAL/checkpoint index records
// exactly like every other build knob) under the QuantOptions keys.
type QuantSpec struct {
	Kind QuantKind
	// RerankK is how many approximate candidates get exact
	// full-precision re-scoring before the top-k cut. 0 selects the
	// per-query default max(4k, 32).
	RerankK int
	// PQM / PQKs configure the product quantizer (subquantizer count
	// and centroids per subquantizer). Zero selects defaults: M=8
	// (clamped to a divisor of d), Ks=16 (the 4-bit fast-scan path).
	PQM, PQKs int
}

// RerankOption is the "rerank_k" key: the re-rank width of a family
// that scans codes. Search clamps the width to the rows, so the bound
// only keeps the recipe sane.
var RerankOption = Option{Name: "rerank_k", Max: 1 << 16}

// QuantOptions are the keys of a family that can scan quantized codes
// beside its full-precision rows; QuantSpecOf reads them. A product
// quantizer has at most 256 centroids per subquantizer (one-byte
// codes) and at most one subquantizer per dimension.
var QuantOptions = []Option{{Name: "quant", Max: int(QuantOPQ)}, RerankOption, {Name: "pqm", Max: 256}, {Name: "pqks", Max: 256}}

// QuantSpecOf reads the QuantOptions keys of a checked opts map.
func QuantSpecOf(opts map[string]int) QuantSpec {
	return QuantSpec{Kind: QuantKind(opts["quant"]), RerankK: opts["rerank_k"], PQM: opts["pqm"], PQKs: opts["pqks"]}
}

// Enabled reports whether the spec selects any codec.
func (s QuantSpec) Enabled() bool { return s.Kind != QuantNone }

// ResolveRerankK returns the effective re-rank width for one query:
// the per-query override, else the configured width, else max(4k, 32),
// never below k and never above n.
func (s QuantSpec) ResolveRerankK(p Params, k, n int) int {
	rk := p.RerankK
	if rk <= 0 {
		rk = s.RerankK
	}
	if rk <= 0 {
		rk = max(4*k, 32)
	}
	return min(max(rk, k), n)
}

// BuildQuantKernel trains the codec named by spec on the n row-major
// vectors and returns the decode-free scan kernel. SQ8 supports
// l2/ip/cosine; PQ and OPQ decompose squared L2 only. Any other metric
// is refused at build time with ErrMetric rather than ranked
// plausibly but wrongly.
func BuildQuantKernel(spec QuantSpec, metric vec.Metric, data []float32, n, d int) (vec.QuantScorer, error) {
	switch spec.Kind {
	case QuantNone:
		return nil, nil
	case QuantSQ8:
		if metric != vec.L2 && metric != vec.InnerProduct && metric != vec.Cosine {
			return nil, fmt.Errorf("%w: sq8 quantization supports l2, ip and cosine, not %v", ErrMetric, metric)
		}
		sq, err := quant.TrainSQ(data, n, d)
		if err != nil {
			return nil, err
		}
		codes := make([]byte, n*d)
		for i := 0; i < n; i++ {
			if _, err := sq.Encode(data[i*d:(i+1)*d], codes[i*d:(i+1)*d]); err != nil {
				return nil, err
			}
		}
		return vec.NewSQ8Scorer(metric, sq.Min, sq.Step, codes, n, d)
	case QuantPQ, QuantOPQ:
		if metric != vec.L2 {
			return nil, fmt.Errorf("%w: %v quantization supports l2 only (ADC tables decompose squared L2), not %v", ErrMetric, spec.Kind, metric)
		}
		cfg := quant.PQConfig{M: spec.PQM, Ks: spec.PQKs, Seed: 1, MaxIter: 15}
		if cfg.M == 0 {
			cfg.M = 8
			for cfg.M > 1 && d%cfg.M != 0 {
				cfg.M /= 2
			}
		}
		if cfg.Ks == 0 {
			cfg.Ks = 16
		}
		if spec.Kind == QuantOPQ {
			o, err := quant.TrainOPQ(data, n, d, quant.OPQConfig{PQConfig: cfg, Iters: 5})
			if err != nil {
				return nil, err
			}
			return quant.NewOPQScorer(o, data, n)
		}
		pq, err := quant.TrainPQ(data, n, d, cfg)
		if err != nil {
			return nil, err
		}
		return quant.NewPQScorer(pq, data, n)
	default:
		return nil, fmt.Errorf("index: unknown quantization kind %v", spec.Kind)
	}
}

// Quantized is implemented by indexes whose candidate generation
// scans quantized codes; the planner uses it to discount index scan
// cost and attribute the re-rank stage.
type Quantized interface {
	// QuantizedScan reports whether this instance actually scans
	// codes (an index family may support quantization but have it
	// disabled).
	QuantizedScan() bool
}

// MergeQuantDefaults folds a collection-level quantization default
// ("none"|"sq8"|"pq"|"opq" + rerank width) into an explicit opts map
// for one CreateIndex call, returning the map that should be built
// from AND recorded in the WAL/checkpoint recipe (so the materialized
// recipe survives recovery even if the schema default changes).
// Explicit opts win over schema defaults. A default lands only on a
// family that declares its key ("quant", "rerank_k") — a schema-wide
// default must not break CreateIndex for, say, a kd-tree.
func MergeQuantDefaults(kind string, opts map[string]int, quantization string, rerankK int) (map[string]int, error) {
	qk, err := ParseQuantKind(quantization)
	if err != nil {
		return nil, err
	}
	f, _ := Lookup(kind)
	_, takesQuant := f.option("quant")
	_, takesRerank := f.option("rerank_k")
	setQuant, setRerank := takesQuant && qk != QuantNone, takesRerank && rerankK > 0
	if !setQuant && !setRerank {
		return opts, nil
	}
	merged := make(map[string]int, len(opts)+2)
	maps.Copy(merged, opts)
	if _, explicit := merged["quant"]; setQuant && !explicit {
		merged["quant"] = int(qk)
	}
	if _, explicit := merged["rerank_k"]; setRerank && !explicit {
		merged["rerank_k"] = rerankK
	}
	return merged, nil
}
