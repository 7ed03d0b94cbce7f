// Package planner implements plan enumeration and selection for
// predicated ("hybrid") vector queries (Section 2.3). The plan space
// follows AnalyticDB-V's four plans:
//
//	PlanBruteForce  (A) single-stage brute-force scan with the
//	                    predicate fused into the scan;
//	PlanPreFilter   (B) attribute filtering first, producing a bitmap
//	                    consulted during index scan (block-first);
//	PlanPostFilter  (C) unfiltered index scan of alpha*k candidates,
//	                    predicate applied to the result set;
//	PlanSingleStage (D) visit-first index traversal with the predicate
//	                    checked on visited nodes.
//
// There is one selection policy: CostBased, a linear CPU model per
// operator (the Milvus/AnalyticDB-V recipe), over inputs measured on the
// served workload once enough observations back them (AdaptiveEnv) and
// static defaults until then. A request may instead force one plan
// (ParsePolicy); that is how the predefined-plan systems of Section 2.4
// (Vearch post-filter, Weaviate pre-filter, Euclid single-stage) are
// reproduced.
package planner

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Kind identifies a hybrid query plan.
type Kind int

const (
	// BruteForce is plan A: fused predicate + exhaustive scan.
	BruteForce Kind = iota
	// PreFilter is plan B: bitmap first, blocked index scan second.
	PreFilter
	// PostFilter is plan C: ANN first, predicate on the result set.
	PostFilter
	// SingleStage is plan D: predicate evaluated during traversal.
	SingleStage
)

// String names the plan for logs and experiment tables.
func (k Kind) String() string {
	switch k {
	case BruteForce:
		return "brute_force"
	case PreFilter:
		return "pre_filter"
	case PostFilter:
		return "post_filter"
	case SingleStage:
		return "single_stage"
	default:
		return fmt.Sprintf("plan(%d)", int(k))
	}
}

// Plan is a selected plan plus its knobs.
type Plan struct {
	Kind Kind
	// Alpha is the post-filter over-fetch multiplier: the index is
	// asked for Alpha*k candidates before the predicate is applied
	// (Section 2.6(3) discusses tuning it).
	Alpha int
}

// ErrPolicy reports a plan policy other than "" or "plan:<kind>".
var ErrPolicy = errors.New("planner: unknown policy")

// ParsePolicy reads a request's plan policy. "" leaves the plan to the
// optimizer (forced is false); "plan:<kind>", kind one of brute_force,
// pre_filter, post_filter and single_stage, forces that plan, alpha
// being a forced post-filter's over-fetch (≤ 0 means 4). Any other
// value is an ErrPolicy.
func ParsePolicy(policy string, alpha int) (p Plan, forced bool, err error) {
	if policy == "" {
		return Plan{}, false, nil
	}
	if name, ok := strings.CutPrefix(policy, "plan:"); ok {
		for k := BruteForce; k <= SingleStage; k++ {
			if name != k.String() {
				continue
			}
			p = Plan{Kind: k}
			if k == PostFilter {
				p.Alpha = alpha
				if p.Alpha <= 0 {
					p.Alpha = 4
				}
			}
			return p, true, nil
		}
	}
	return Plan{}, false, fmt.Errorf("%w %q: want \"\" or plan:<brute_force|pre_filter|post_filter|single_stage>", ErrPolicy, policy)
}

// Enumerate returns every plan applicable to the current environment —
// the "automatic enumeration" mode. Plans requiring an ANN index are
// omitted when none exists.
func Enumerate(hasIndex bool, alpha int) []Plan {
	if alpha <= 0 {
		alpha = 4
	}
	plans := []Plan{{Kind: BruteForce}}
	if hasIndex {
		plans = append(plans,
			Plan{Kind: PreFilter},
			Plan{Kind: PostFilter, Alpha: alpha},
			Plan{Kind: SingleStage},
		)
	}
	return plans
}

// Env carries the statistics selection runs on.
type Env struct {
	N           int     // collection size
	K           int     // requested results
	Selectivity float64 // estimated predicate selectivity in [0,1]
	HasIndex    bool
	// IndexComps estimates full-vector distance computations for one
	// unfiltered ANN search (e.g. ef * avg degree for graphs, nprobe *
	// n/nlist for IVF). Zero falls back to 16*ceil(sqrt(N)).
	IndexComps float64
	// AttrCostRatio is the cost of one attribute predicate check
	// relative to one distance computation; default defaultAttrCostRatio.
	AttrCostRatio float64
	// Alpha for post-filter plans; default 4.
	Alpha int
	// Tail is the rows past the ANN index's coverage: every ANN plan
	// scans them exactly beside its probe, so each pays them as a
	// brute-force scan of Tail rows would. A long tail therefore prices
	// the index out, and brute force wins.
	Tail int
	// QuantRatio, in (0,1), discounts IndexComps when the index scans
	// quantized codes and one code comparison is cheaper than one
	// full-precision comparison. 0 means a full-precision index; ≥1
	// means a quantized index whose scan earns no discount, which is
	// what the executor sets statically: since the float32 scan runs
	// on the AVX kernel the sq8 LUT scan costs 2.2x a float32
	// comparison, not 0.35x (BenchmarkQuantScan; the 4-bit PQ fast
	// scan is at 0.2x). AdaptiveEnv replaces a non-zero value with the
	// measured ratio once calibration has observed enough scans and
	// that ratio is below 1. The exact re-rank stage is already counted
	// inside IndexComps by the indexes' own accounting.
	QuantRatio float64
}

// defaultAttrCostRatio is measured by E12b (EXPERIMENTS.md): the
// compiled column-at-a-time evaluator that exhaustive plans pay on
// every row checks one attribute in ~0.5 ns, against ~24 ns for one
// d=128 distance computation of a flat scan on the AVX kernel (4.4 ns
// at d=32, where the ratio is 0.12; on the portable kernel 63 ns and
// 0.008). The per-id matcher traversals use is ~4x dearer per check,
// but it only scales the visit term, where a visit already costs a
// full distance computation. AdaptiveEnv replaces this constant with
// the ratio measured online.
const defaultAttrCostRatio = 0.02

// Normalized returns e with every unset input at its static default
// and the selectivity clamped to [0,1]: the inputs Cost and CostBased
// plan with.
func (e Env) Normalized() Env {
	if e.Alpha <= 0 {
		e.Alpha = 4
	}
	if e.AttrCostRatio <= 0 {
		e.AttrCostRatio = defaultAttrCostRatio
	}
	if e.IndexComps <= 0 {
		e.IndexComps = 16 * max(1, math.Ceil(math.Sqrt(float64(e.N))))
	}
	if e.QuantRatio > 0 && e.QuantRatio < 1 {
		e.IndexComps *= e.QuantRatio
	}
	e.Selectivity = min(max(e.Selectivity, 0), 1)
	return e
}

// Cost estimates the latency of a plan in distance-computation units
// using the linear model of Section 2.3(2): total cost = CPU cost of
// distance comparisons + attribute evaluations, each weighted.
func Cost(p Plan, e Env) float64 {
	e = e.Normalized()
	n := float64(e.N)
	sel := e.Selectivity
	attr := e.AttrCostRatio
	// The unindexed tail's exact scan: the predicate on every tail row,
	// a distance on each survivor. Plans that probe unfiltered score the
	// whole tail instead.
	tail := float64(e.Tail)
	switch p.Kind {
	case BruteForce:
		// Evaluate the predicate on every row, distance on survivors.
		return n*attr + n*sel
	case PreFilter:
		// Bitmap build (attr on every row) + exact scan over survivors
		// when few, or blocked index scan plus the tail's survivors
		// otherwise.
		return n*attr + min(sel*n, e.IndexComps/max(sel, 1e-6)+tail*sel)
	case PostFilter:
		alpha := float64(p.Alpha)
		if alpha <= 0 {
			alpha = 4
		}
		// One ANN search sized for alpha*k results + attr checks on
		// the candidates. Shortfall risk is handled by CostBased.
		return e.IndexComps*alpha/4 + tail + alpha*float64(e.K)*attr
	case SingleStage:
		// Traversal must explore beyond the unfiltered beam to fill k
		// admitted results. Empirically the extra exploration grows
		// like 1/sqrt(sel), gentler than the naive 1/sel bound,
		// because blocked nodes still guide the walk (they are
		// traversed, just not returned). Estimating this precisely is
		// open problem 3 of the paper.
		visits := min(e.IndexComps/max(math.Sqrt(sel), 1e-3), n)
		return visits*(1+attr) + tail*(attr+sel)
	default:
		return n
	}
}

// ShortfallRisk estimates the probability-weighted result deficit of a
// post-filter plan: expected survivors among alpha*k candidates is
// alpha*k*sel; below k the plan may return fewer than k results.
// Returns the expected fraction of the result set that is missing.
func ShortfallRisk(alpha, k int, sel float64) float64 {
	expect := float64(alpha) * float64(k) * sel
	if expect >= float64(k) {
		return 0
	}
	return 1 - expect/float64(k)
}

// CostBased picks the plan with minimum estimated cost, excluding
// post-filter plans whose shortfall risk exceeds 10% (a (c,k)-search
// must return k results when they exist). The gate judges the query's
// own selectivity estimate, which no measured input changes, so
// calibration can reorder plans by cost but never admit a
// shortfall-prone post-filter.
func CostBased(e Env) Plan {
	e = e.Normalized()
	best := Plan{Kind: BruteForce}
	bestCost := Cost(best, e)
	for _, p := range Enumerate(e.HasIndex, e.Alpha)[1:] {
		if p.Kind == PostFilter && ShortfallRisk(p.Alpha, e.K, e.Selectivity) > 0.1 {
			continue
		}
		if c := Cost(p, e); c < bestCost {
			best, bestCost = p, c
		}
	}
	return best
}

// Observed carries statistics measured online by the stats layer
// (internal/stats) on the workload actually being served, as opposed
// to the static defaults Env falls back to: the real probe cost and
// the timing-calibrated cost ratios.
type Observed struct {
	// MeanProbeComps is the mean full-vector distance computations per
	// ANN index probe, measured across served queries. Zero means "no
	// probes observed yet".
	MeanProbeComps float64
	// ProbeCount is how many probes the mean is over.
	ProbeCount int64
	// AttrCostRatio is the measured cost of one attribute predicate
	// evaluation relative to one full-precision distance computation
	// (ns per eval / ns per comp), replacing the static default once
	// AttrObservations backs it.
	AttrCostRatio    float64
	AttrObservations int64
	// QuantRatio is the measured cost of one quantized-code comparison
	// relative to one full-precision comparison, replacing the static
	// ~0.35 discount once QuantObservations backs it. Only meaningful
	// in (0,1).
	QuantRatio        float64
	QuantObservations int64
}

// Minimum observation counts before AdaptiveEnv trusts a measured
// statistic over the static default. Below these the sample is too
// noisy to beat a defensible default.
const (
	MinProbeObservations = 16
	// MinCostObservations gates the timing-derived ratios
	// (AttrCostRatio, QuantRatio): each observation is already an
	// average over a whole scan, so fewer are needed.
	MinCostObservations = 8
)

// AdaptiveEnv refines e with measured statistics: the observed probe
// cost replaces the sqrt(N) IndexComps default once enough probes back
// it, and the timing-calibrated cost ratios (attribute eval vs distance
// comp, quantized vs full-precision comp) replace their static
// defaults. An input AdaptiveEnv leaves unset is at its default when
// CostBased plans with it, so IndexComps > 0 or AttrCostRatio > 0 on
// the result says that input was measured.
func AdaptiveEnv(e Env, o Observed) Env {
	if o.ProbeCount >= MinProbeObservations && o.MeanProbeComps > 0 {
		e.IndexComps = o.MeanProbeComps
	}
	if o.AttrObservations >= MinCostObservations && o.AttrCostRatio > 0 {
		e.AttrCostRatio = o.AttrCostRatio
	}
	if o.QuantObservations >= MinCostObservations && o.QuantRatio > 0 && o.QuantRatio < 1 {
		// Only meaningful when the env says the index scans quantized
		// codes at all; replacing a zero ratio would invent a discount.
		if e.QuantRatio > 0 {
			e.QuantRatio = o.QuantRatio
		}
	}
	return e
}
