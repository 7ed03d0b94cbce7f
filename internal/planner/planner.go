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
// Selection is rule-based (selectivity thresholds, the Qdrant/Vespa
// recipe) or cost-based (a linear I/O+CPU model per operator, the
// Milvus/AnalyticDB-V recipe). Profiles reproduce the predefined-plan
// behavior of commercial systems surveyed in Section 2.4.
package planner

import "fmt"

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
	// n/nlist for IVF). Zero falls back to a sqrt(N) heuristic.
	IndexComps float64
	// AttrCostRatio is the cost of one attribute predicate check
	// relative to one distance computation; default defaultAttrCostRatio.
	AttrCostRatio float64
	// Alpha for post-filter plans; default 4.
	Alpha int
	// QuantRatio, in (0,1), discounts IndexComps when the index scans
	// quantized codes and one code comparison is cheaper than one
	// full-precision comparison. 0 means a full-precision index; ≥1
	// means a quantized index whose scan earns no discount, which is
	// what the executor sets statically: since the float32 scan runs
	// on the AVX kernel the sq8 LUT scan costs 2.2x a float32
	// comparison, not 0.35x (BenchmarkQuantScan; the 4-bit PQ fast
	// scan is at 0.2x). The "adaptive" policy replaces a non-zero
	// value with the measured ratio once calibration has observed
	// enough scans and that ratio is below 1. The exact re-rank stage
	// is already counted inside IndexComps by the indexes' own
	// accounting.
	QuantRatio float64
	// ShortfallSelectivity is the pessimistic selectivity the
	// post-filter shortfall gate judges with. Cost ranking may use a
	// blended or calibrated Selectivity, but admitting a post-filter
	// plan is a correctness decision (a (c,k)-search must return k
	// results when they exist), so the gate must never get more
	// optimistic than the rawest estimate available. Zero means "use
	// Selectivity".
	ShortfallSelectivity float64
}

// defaultAttrCostRatio is measured by E12b (EXPERIMENTS.md): the
// compiled column-at-a-time evaluator that exhaustive plans pay on
// every row checks one attribute in ~0.5 ns, against ~24 ns for one
// d=128 distance computation of a flat scan on the AVX kernel (4.4 ns
// at d=32, where the ratio is 0.12; on the portable kernel 63 ns and
// 0.008). The per-id matcher traversals use is ~4x dearer per check,
// but it only scales the visit term, where a visit already costs a
// full distance computation. The "adaptive" policy replaces this
// constant with the ratio it measures online.
const defaultAttrCostRatio = 0.02

func (e Env) normalized() Env {
	if e.Alpha <= 0 {
		e.Alpha = 4
	}
	if e.AttrCostRatio <= 0 {
		e.AttrCostRatio = defaultAttrCostRatio
	}
	if e.IndexComps <= 0 {
		c := 1.0
		for c*c < float64(e.N) {
			c++
		}
		e.IndexComps = 16 * c
	}
	if e.QuantRatio > 0 && e.QuantRatio < 1 {
		e.IndexComps *= e.QuantRatio
	}
	if e.Selectivity < 0 {
		e.Selectivity = 0
	}
	if e.Selectivity > 1 {
		e.Selectivity = 1
	}
	if e.ShortfallSelectivity <= 0 || e.ShortfallSelectivity > 1 {
		e.ShortfallSelectivity = e.Selectivity
	}
	return e
}

// RuleBased selects a plan with the selectivity heuristic the paper
// attributes to Qdrant and Vespa:
//
//   - very selective predicate (few survivors): scanning the survivors
//     exhaustively is cheapest -> brute force over the filtered set
//     (plan A, or B when survivors still warrant the index);
//   - mildly selective: post-filtering wastes little -> plan C;
//   - in between: visit-first single-stage traversal -> plan D.
func RuleBased(e Env) Plan {
	e = e.normalized()
	if !e.HasIndex {
		return Plan{Kind: BruteForce}
	}
	survivors := e.Selectivity * float64(e.N)
	switch {
	case survivors <= 4*float64(e.K) || survivors <= e.IndexComps:
		// So few survivors that exact scan over them beats any index.
		return Plan{Kind: PreFilter}
	case e.Selectivity >= 0.5:
		return Plan{Kind: PostFilter, Alpha: e.Alpha}
	default:
		return Plan{Kind: SingleStage}
	}
}

// Cost estimates the latency of a plan in distance-computation units
// using the linear model of Section 2.3(2): total cost = CPU cost of
// distance comparisons + attribute evaluations, each weighted.
func Cost(p Plan, e Env) float64 {
	e = e.normalized()
	n := float64(e.N)
	sel := e.Selectivity
	attr := e.AttrCostRatio
	switch p.Kind {
	case BruteForce:
		// Evaluate the predicate on every row, distance on survivors.
		return n*attr + n*sel
	case PreFilter:
		// Bitmap build (attr on every row) + exact scan over survivors
		// when few, or blocked index scan otherwise.
		survivors := sel * n
		scan := survivors
		if blocked := e.IndexComps / maxf(sel, 1e-6); blocked < scan {
			scan = blocked
		}
		return n*attr + scan
	case PostFilter:
		alpha := float64(p.Alpha)
		if alpha <= 0 {
			alpha = 4
		}
		// One ANN search sized for alpha*k results + attr checks on
		// the candidates. Shortfall risk is handled by Penalty.
		return e.IndexComps*alpha/4 + alpha*float64(e.K)*attr
	case SingleStage:
		// Traversal must explore beyond the unfiltered beam to fill k
		// admitted results. Empirically the extra exploration grows
		// like 1/sqrt(sel), gentler than the naive 1/sel bound,
		// because blocked nodes still guide the walk (they are
		// traversed, just not returned). Estimating this precisely is
		// open problem 3 of the paper.
		visits := e.IndexComps / maxf(sqrt(sel), 1e-3)
		if visits > n {
			visits = n
		}
		return visits * (1 + attr)
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
// must return k results when they exist).
func CostBased(e Env) Plan {
	e = e.normalized()
	best := Plan{Kind: BruteForce}
	bestCost := Cost(best, e)
	for _, p := range Enumerate(e.HasIndex, e.Alpha)[1:] {
		if p.Kind == PostFilter && ShortfallRisk(p.Alpha, e.K, e.ShortfallSelectivity) > 0.1 {
			continue
		}
		if c := Cost(p, e); c < bestCost {
			best, bestCost = p, c
		}
	}
	return best
}

// Observed carries statistics measured online by the stats layer
// (internal/stats): the real probe cost and predicate selectivities
// of the workload actually being served, as opposed to the static
// heuristics Env falls back to. It is the planner-side half of the
// ROADMAP's adaptive query optimization: the "adaptive" policy
// refines its cost model with these before selecting a plan.
type Observed struct {
	// MeanProbeComps is the mean full-vector distance computations per
	// ANN index probe, measured across served queries. Zero means "no
	// probes observed yet".
	MeanProbeComps float64
	// ProbeCount is how many probes the mean is over.
	ProbeCount int64
	// MeanSelectivity is the mean observed selectivity for the query's
	// predicate columns (a coarse per-column prior). Valid only when
	// SelObservations > 0.
	MeanSelectivity float64
	// SelObservations is the smallest per-column observation count
	// backing MeanSelectivity.
	SelObservations int64
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
// statistic over the static heuristic. Below these the sample is too
// noisy to beat a defensible default.
const (
	MinProbeObservations = 16
	MinSelObservations   = 32
	// MinCostObservations gates the timing-derived ratios
	// (AttrCostRatio, QuantRatio): each observation is already an
	// average over a whole scan, so fewer are needed.
	MinCostObservations = 8
)

// AdaptiveEnv refines e with measured statistics: the observed probe
// cost replaces the sqrt(N) IndexComps heuristic once enough probes
// back it, the observed selectivity prior is blended 50/50 with the
// per-query sampled estimate once enough observations back it (the
// sampled estimate stays in the mix because the prior conflates
// different predicate values on the same column), and the timing-
// calibrated cost ratios (attribute eval vs distance comp, quantized
// vs full-precision comp) replace their static defaults. Cost-based
// selection over the refined env is the "adaptive" policy.
//
// Calibration is deliberately barred from the post-filter shortfall
// gate: ShortfallSelectivity is pinned to the most pessimistic (lowest)
// selectivity estimate in hand, so refinement can reorder plans by
// cost but can never talk CostBased into a shortfall-prone post-filter
// that the uncalibrated model would have rejected.
func AdaptiveEnv(e Env, o Observed) Env {
	if o.ProbeCount >= MinProbeObservations && o.MeanProbeComps > 0 {
		e.IndexComps = o.MeanProbeComps
	}
	if o.SelObservations >= MinSelObservations {
		prior := clamp01(o.MeanSelectivity)
		pessimistic := e.Selectivity
		if prior < pessimistic {
			pessimistic = prior
		}
		e.Selectivity = (e.Selectivity + prior) / 2
		if e.ShortfallSelectivity <= 0 || pessimistic < e.ShortfallSelectivity {
			e.ShortfallSelectivity = pessimistic
		}
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

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 24; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Profile reproduces the predefined-plan policy of a surveyed system
// (Section 2.4): given the environment it returns that system's plan
// without inspecting costs.
type Profile string

// Profiles of surveyed systems.
const (
	// ProfileVearch always post-filters (acceptable for e-commerce
	// where fewer than k results are tolerated).
	ProfileVearch Profile = "vearch"
	// ProfileWeaviate always pre-filters.
	ProfileWeaviate Profile = "weaviate"
	// ProfileEuclid always uses its single index, unpredicated plans
	// only (single-stage when predicated).
	ProfileEuclid Profile = "euclid"
	// ProfileADBV runs the AnalyticDB-V cost-based optimizer over all
	// four plans.
	ProfileADBV Profile = "analyticdb-v"
	// ProfileMilvus models Milvus: cost-based across partition-based
	// pre-filter and post-filter.
	ProfileMilvus Profile = "milvus"
	// ProfileQdrant models Qdrant/Vespa rule-based selection.
	ProfileQdrant Profile = "qdrant"
)

// Select returns the profile's plan for the environment.
func (pr Profile) Select(e Env) (Plan, error) {
	e = e.normalized()
	switch pr {
	case ProfileVearch:
		return Plan{Kind: PostFilter, Alpha: e.Alpha}, nil
	case ProfileWeaviate:
		return Plan{Kind: PreFilter}, nil
	case ProfileEuclid:
		return Plan{Kind: SingleStage}, nil
	case ProfileADBV, ProfileMilvus:
		return CostBased(e), nil
	case ProfileQdrant:
		return RuleBased(e), nil
	default:
		return Plan{}, fmt.Errorf("planner: unknown profile %q", string(pr))
	}
}
