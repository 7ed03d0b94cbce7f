package planner

import (
	"errors"
	"slices"
	"testing"
)

func TestEnumerate(t *testing.T) {
	if got := Enumerate(false, 0); len(got) != 1 || got[0].Kind != BruteForce {
		t.Fatalf("no-index plans = %v", got)
	}
	got := Enumerate(true, 0)
	if len(got) != 4 {
		t.Fatalf("full plan space = %v", got)
	}
	for _, p := range got {
		if p.Kind == PostFilter && p.Alpha != 4 {
			t.Fatalf("default alpha = %d", p.Alpha)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		BruteForce: "brute_force", PreFilter: "pre_filter",
		PostFilter: "post_filter", SingleStage: "single_stage",
	} {
		if k.String() != want {
			t.Fatalf("%v != %s", k, want)
		}
	}
}

func TestCostOrderingBySelectivity(t *testing.T) {
	mk := func(sel float64) Env {
		return Env{N: 100000, K: 10, HasIndex: true, Selectivity: sel, IndexComps: 2000}
	}
	// At high selectivity post-filter must be the cheapest valid plan.
	e := mk(0.9)
	cPost := Cost(Plan{Kind: PostFilter, Alpha: 4}, e)
	cBrute := Cost(Plan{Kind: BruteForce}, e)
	if cPost >= cBrute {
		t.Fatalf("post-filter %v should beat brute force %v at sel 0.9", cPost, cBrute)
	}
	// At tiny selectivity pre-filter (scan survivors) must beat
	// single-stage traversal.
	e = mk(0.0001)
	cPre := Cost(Plan{Kind: PreFilter}, e)
	cSingle := Cost(Plan{Kind: SingleStage}, e)
	if cPre >= cSingle {
		t.Fatalf("pre-filter %v should beat single-stage %v at sel 0.0001", cPre, cSingle)
	}
}

func TestShortfallRisk(t *testing.T) {
	if r := ShortfallRisk(4, 10, 0.5); r != 0 {
		t.Fatalf("alpha=4 sel=0.5 risk = %v", r)
	}
	if r := ShortfallRisk(2, 10, 0.1); r <= 0 || r >= 1 {
		t.Fatalf("alpha=2 sel=0.1 risk = %v", r)
	}
	if ShortfallRisk(1, 10, 0.05) < ShortfallRisk(8, 10, 0.05) {
		t.Fatal("more over-fetch must not raise risk")
	}
}

func TestCostBasedAvoidsShortfall(t *testing.T) {
	// Selectivity so low that post-filter would return almost nothing:
	// cost-based must not pick it.
	e := Env{N: 100000, K: 10, HasIndex: true, Selectivity: 0.001, IndexComps: 2000, Alpha: 4}
	if p := CostBased(e); p.Kind == PostFilter {
		t.Fatal("cost-based picked a shortfall-prone post-filter")
	}
	// Permissive predicate: post-filter wins.
	e.Selectivity = 0.9
	if p := CostBased(e); p.Kind != PostFilter {
		t.Fatalf("high selectivity -> %v", p.Kind)
	}
	// No index: brute force.
	e.HasIndex = false
	if p := CostBased(e); p.Kind != BruteForce {
		t.Fatalf("no index -> %v", p.Kind)
	}
}

func TestEnvNormalization(t *testing.T) {
	e := Env{N: 10000, K: 5, Selectivity: 2}.Normalized()
	if e.Selectivity != 1 || e.Alpha != 4 || e.IndexComps <= 0 || e.AttrCostRatio <= 0 {
		t.Fatalf("normalized = %+v", e)
	}
	e = Env{N: 10000, K: 5, Selectivity: -1}.Normalized()
	if e.Selectivity != 0 {
		t.Fatal("negative selectivity should clamp")
	}
	// The cold IndexComps default is 16*ceil(sqrt(N)), and 16 at N <= 1.
	for _, n := range []int{0, 1, 2, 3, 4, 5, 99, 100, 101, 20000, 999_999, 1_000_000, 1_000_001, 1<<31 - 1} {
		c := 1.0
		for c*c < float64(n) {
			c++
		}
		if got := (Env{N: n}).Normalized().IndexComps; got != 16*c {
			t.Fatalf("N=%d: IndexComps default %v, want %v", n, got, 16*c)
		}
	}
}

func TestAdaptiveEnv(t *testing.T) {
	base := Env{N: 100000, K: 10, HasIndex: true, Selectivity: 0.4, IndexComps: 5000}

	// Too few observations: the env is untouched.
	e := AdaptiveEnv(base, Observed{MeanProbeComps: 900, ProbeCount: MinProbeObservations - 1})
	if e != base {
		t.Fatalf("under-observed env changed: %+v", e)
	}

	// Enough probes: the measured cost replaces the default, and the
	// query's own selectivity estimate is left alone.
	e = AdaptiveEnv(base, Observed{MeanProbeComps: 900, ProbeCount: MinProbeObservations})
	if e.IndexComps != 900 || e.Selectivity != base.Selectivity {
		t.Fatalf("IndexComps = %v, Selectivity = %v, want 900 and %v", e.IndexComps, e.Selectivity, base.Selectivity)
	}

	// A zero mean probe cost never wipes the default.
	e = AdaptiveEnv(base, Observed{MeanProbeComps: 0, ProbeCount: 1000})
	if e.IndexComps != base.IndexComps {
		t.Fatalf("zero probe cost overwrote IndexComps: %v", e.IndexComps)
	}
}

// AnalyticDB-V crossover sweep: with selectivity rising from needle to
// permissive at fixed size, the cost-based optimizer must walk the
// paper's regimes — pre-filter while survivors are few, never a
// shortfall-prone post-filter, post-filter once the predicate passes
// nearly everything.
func TestProfileADBVSelectivitySweep(t *testing.T) {
	base := Env{N: 200000, K: 10, HasIndex: true, IndexComps: 3000, Alpha: 4}
	wins := map[float64]Kind{}
	for _, sel := range []float64{0.0005, 0.005, 0.05, 0.3, 0.6, 0.95} {
		e := base
		e.Selectivity = sel
		p := CostBased(e)
		wins[sel] = p.Kind
		if p.Kind == PostFilter && ShortfallRisk(p.Alpha, e.K, sel) > 0.1 {
			t.Fatalf("sel=%v: picked shortfall-prone post-filter", sel)
		}
	}
	// At needle selectivity both scan plans cost n*attr + survivors;
	// either is correct, an index-first plan is not.
	if wins[0.0005] != PreFilter && wins[0.0005] != BruteForce {
		t.Fatalf("needle selectivity -> %v, want an exact-scan plan", wins[0.0005])
	}
	if wins[0.95] != PostFilter {
		t.Fatalf("permissive selectivity -> %v, want post_filter", wins[0.95])
	}
}

// Milvus size sweep at fixed selectivity: tiny collections are cheapest
// brute-forced / pre-filtered (the index costs more than the scan),
// large ones must use the index.
func TestProfileMilvusSizeSweep(t *testing.T) {
	for _, tc := range []struct {
		n        int
		comps    float64
		wantScan bool // brute force or pre-filter exact scan
	}{
		{n: 200, comps: 180, wantScan: true},
		{n: 1000000, comps: 4000, wantScan: false},
	} {
		e := Env{N: tc.n, K: 10, HasIndex: true, Selectivity: 0.5, IndexComps: tc.comps, Alpha: 4}
		p := CostBased(e)
		isScan := p.Kind == BruteForce || p.Kind == PreFilter
		if isScan != tc.wantScan {
			t.Fatalf("n=%d -> %v (scan=%v), want scan=%v", tc.n, p.Kind, isScan, tc.wantScan)
		}
	}
}

// TestCostBasedSweep walks the optimizer across the filtered_search
// benchmark's three selectivity buckets, at the probe cost its HNSW
// measures and at the cold default, one input set per row. No row may
// pick a shortfall-prone post-filter.
func TestCostBasedSweep(t *testing.T) {
	for _, tc := range []struct {
		n     int
		comps float64 // 0: the cold default
		sel   float64
		want  []Kind // any of these
	}{
		{20000, 380, 0.01, []Kind{BruteForce}},
		{20000, 380, 0.1, []Kind{SingleStage}},
		{20000, 380, 0.5, []Kind{PostFilter}},
		{20000, 0, 0.1, []Kind{BruteForce}},
	} {
		e := Env{N: tc.n, K: 10, HasIndex: true, Selectivity: tc.sel, IndexComps: tc.comps}
		p := CostBased(e)
		if p.Kind == PostFilter && ShortfallRisk(p.Alpha, e.K, tc.sel) > 0.1 {
			t.Fatalf("n=%d sel=%v: shortfall-prone post-filter", tc.n, tc.sel)
		}
		if tc.want != nil && !slices.Contains(tc.want, p.Kind) {
			t.Fatalf("n=%d comps=%v sel=%v -> %v, want one of %v", tc.n, tc.comps, tc.sel, p.Kind, tc.want)
		}
	}
}

// Regression: no calibration input — however flattering to the index
// path — may make CostBased pick a post-filter whose shortfall risk
// the uncalibrated model rejects. The gate judges the query's own
// selectivity estimate, which calibration never touches.
func TestCalibrationNeverAdmitsShortfallPostFilter(t *testing.T) {
	base := Env{N: 100000, K: 10, HasIndex: true, Selectivity: 0.001, IndexComps: 2000, Alpha: 4}
	// Adversarial calibration: dirt-cheap index probes, near-free
	// attribute checks and quantized comparisons.
	obs := Observed{
		MeanProbeComps: 10, ProbeCount: 1 << 20,
		AttrCostRatio: 1e-6, AttrObservations: 1 << 20,
		QuantRatio: 0.01, QuantObservations: 1 << 20,
	}
	if risk := ShortfallRisk(4, base.K, base.Selectivity); risk <= 0.1 {
		t.Fatalf("test premise broken: raw risk = %v", risk)
	}
	// Every raw selectivity in the risky band.
	for _, sel := range []float64{0.0001, 0.001, 0.01, 0.02} {
		b := base
		b.Selectivity = sel
		if ShortfallRisk(4, b.K, sel) <= 0.1 {
			continue
		}
		if p := CostBased(AdaptiveEnv(b, obs)); p.Kind == PostFilter {
			t.Fatalf("sel=%v: calibration admitted shortfall-prone post-filter", sel)
		}
	}
}

// TestParsePolicy: "" is the optimizer, the four plan:<kind> forms force
// their plan, and nothing else is a policy.
func TestParsePolicy(t *testing.T) {
	if p, forced, err := ParsePolicy("", 0); err != nil || forced || p != (Plan{}) {
		t.Fatalf(`"" -> %+v forced=%v err=%v`, p, forced, err)
	}
	for _, k := range []Kind{BruteForce, PreFilter, PostFilter, SingleStage} {
		p, forced, err := ParsePolicy("plan:"+k.String(), 0)
		if err != nil || !forced || p.Kind != k {
			t.Fatalf("plan:%v -> %+v forced=%v err=%v", k, p, forced, err)
		}
		if (k == PostFilter) != (p.Alpha == 4) {
			t.Fatalf("plan:%v alpha = %d", k, p.Alpha)
		}
	}
	if p, _, _ := ParsePolicy("plan:post_filter", 9); p.Alpha != 9 {
		t.Fatalf("forced post-filter alpha = %d, want 9", p.Alpha)
	}
	for _, bad := range []string{"cost", "rule", "adaptive", "vearch", "weaviate", "euclid", "analyticdb-v", "milvus", "qdrant", "plan:", "plan:zz", "PLAN:brute_force", "plan:brute_force "} {
		if _, forced, err := ParsePolicy(bad, 0); !errors.Is(err, ErrPolicy) || forced {
			t.Fatalf("%q: forced=%v err=%v, want ErrPolicy", bad, forced, err)
		}
	}
}

// Calibrated cost ratios replace their static defaults only once
// enough scans back them, and a bogus quantized ratio can never invent
// a discount for a full-precision index.
func TestAdaptiveEnvCalibratedRatios(t *testing.T) {
	base := Env{N: 100000, K: 10, HasIndex: true, Selectivity: 0.4, IndexComps: 5000, QuantRatio: 0.35}
	e := AdaptiveEnv(base, Observed{
		AttrCostRatio: 0.05, AttrObservations: MinCostObservations,
		QuantRatio: 0.2, QuantObservations: MinCostObservations,
	})
	if e.AttrCostRatio != 0.05 || e.QuantRatio != 0.2 {
		t.Fatalf("calibrated ratios not applied: %+v", e)
	}
	// Under-observed: untouched.
	e = AdaptiveEnv(base, Observed{
		AttrCostRatio: 0.05, AttrObservations: MinCostObservations - 1,
		QuantRatio: 0.2, QuantObservations: MinCostObservations - 1,
	})
	if e.AttrCostRatio != base.AttrCostRatio || e.QuantRatio != base.QuantRatio {
		t.Fatalf("under-observed ratios applied: %+v", e)
	}
	// Full-precision index (QuantRatio 0): measured quant ratio must
	// not fabricate a discount.
	fp := base
	fp.QuantRatio = 0
	e = AdaptiveEnv(fp, Observed{QuantRatio: 0.2, QuantObservations: 1 << 20})
	if e.QuantRatio != 0 {
		t.Fatalf("quant discount invented for full-precision index: %v", e.QuantRatio)
	}
}

// TestTailFlipsToBruteForce: the unindexed tail is priced as the exact
// scan it is. On 20 000 rows with a 2 000-comp probe a query keeps an
// index plan while the tail is short, and a tail past the crossover
// (where probe plus tail costs more than scanning every row) picks
// brute_force, unfiltered or filtered. Every index plan pays for a tail.
func TestTailFlipsToBruteForce(t *testing.T) {
	for _, tc := range []struct {
		sel   float64
		tail  int
		brute bool
	}{
		{1, 0, false},
		{1, 4000, false},
		{1, 19000, true},
		{0.5, 2000, false},
		{0.5, 19500, true},
	} {
		e := Env{N: 20000, K: 10, HasIndex: true, Selectivity: tc.sel, IndexComps: 2000, Tail: tc.tail}
		if got := CostBased(e).Kind; (got == BruteForce) != tc.brute {
			t.Fatalf("selectivity %.1f, tail %d: plan %v, brute force wanted: %v (costs: brute %.0f, post %.0f, single %.0f)", tc.sel, tc.tail, got, tc.brute,
				Cost(Plan{Kind: BruteForce}, e), Cost(Plan{Kind: PostFilter, Alpha: 4}, e), Cost(Plan{Kind: SingleStage}, e))
		}
		if tc.tail > 0 {
			short := e
			short.Tail = 0
			for _, p := range Enumerate(true, 4)[1:] {
				if d := Cost(p, e) - Cost(p, short); d <= 0 {
					t.Fatalf("%v: a tail of %d rows adds %.0f to its cost", p.Kind, tc.tail, d)
				}
			}
		}
	}
}
