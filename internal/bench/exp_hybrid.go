package bench

import (
	"fmt"
	"io"
	"time"

	"vdbms/internal/dataset"
	"vdbms/internal/executor"
	"vdbms/internal/filter"
	"vdbms/internal/index"
	"vdbms/internal/index/hnsw"
	"vdbms/internal/planner"
	"vdbms/internal/stats"
	"vdbms/internal/topk"
)

// hybridEnv builds a clustered collection with a uniform integer
// attribute in [0, 1000) and an HNSW index.
func hybridEnv(n int) (*executor.Env, *dataset.Dataset, error) {
	ds := dataset.Clustered(n, 32, 16, 0.4, 1)
	h, err := hnsw.Build(ds.Data, ds.Count, ds.Dim, hnsw.Config{M: 8, Seed: 1})
	if err != nil {
		return nil, nil, err
	}
	attrs := filter.NewTable()
	if _, err := attrs.AddColumn("a", filter.Int64); err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		// i*7919 mod 1000 decorrelates the attribute from both row
		// order and cluster structure.
		if err := attrs.AppendRow(map[string]filter.Value{"a": filter.IntV(int64(i * 7919 % 1000))}); err != nil {
			return nil, nil, err
		}
	}
	env, err := executor.NewEnv(ds.Data, ds.Count, ds.Dim, nil, h, attrs)
	return env, ds, err
}

func predLT(x int64) []filter.Predicate {
	return []filter.Predicate{{Column: "a", Op: filter.Lt, Value: filter.IntV(x)}}
}

// filteredTruth computes exact top-k among predicate survivors.
func filteredTruth(env *executor.Env, ds *dataset.Dataset, qs [][]float32, preds []filter.Predicate, k int) [][]topk.Result {
	out := make([][]topk.Result, len(qs))
	for i, q := range qs {
		res, _ := env.Execute(planner.Plan{Kind: planner.BruteForce}, q, k, preds, executor.Options{})
		out[i] = res
	}
	_ = ds
	return out
}

// E8 — hybrid plans across the selectivity spectrum: pre-filter wins
// when few rows survive, post-filter when most do, single-stage in
// between; the alpha over-fetch knob repairs post-filter shortfall
// (Section 2.3).
func init() {
	register("E8", "pre/post/single-stage filtering cross over with selectivity; alpha fixes shortfall", runE8)
}

func runE8(w io.Writer, scale int) {
	n := scaled(8000, scale, 2000)
	env, ds, err := hybridEnv(n)
	if err != nil {
		fmt.Fprintf(w, "E8: %v\n", err)
		return
	}
	qs := ds.Queries(20, 0.05, 2)
	k := 10
	t := NewTable(fmt.Sprintf("E8a hybrid plan sweep (n=%d, d=32, k=%d, ef=100)", n, k),
		"selectivity", "plan", "recall@10", "results", "mean.latency")
	for _, selPermille := range []int64{2, 10, 100, 300, 500, 900} {
		preds := predLT(selPermille)
		truth := filteredTruth(env, ds, qs, preds, k)
		for _, plan := range []planner.Plan{
			{Kind: planner.BruteForce},
			{Kind: planner.PreFilter},
			{Kind: planner.PostFilter, Alpha: 4},
			{Kind: planner.SingleStage},
		} {
			got := make([][]topk.Result, len(qs))
			mean := Timed(1, func() {
				for i, q := range qs {
					got[i], _ = env.Execute(plan, q, k, preds, executor.Options{Ef: 100})
				}
			}) / time.Duration(len(qs))
			var results float64
			for _, g := range got {
				results += float64(len(g))
			}
			t.AddRow(float64(selPermille)/1000, plan.Kind.String(),
				sharedRecall(got, truth), results/float64(len(qs)), mean)
		}
	}
	t.Print(w)
	fmt.Fprintln(w, "expected shape: pre_filter fastest+exact at low selectivity; post_filter returns <k there; at high selectivity post/single-stage beat brute force")

	// Alpha ablation for post-filter at a mid selectivity.
	t2 := NewTable("E8b post-filter over-fetch alpha (selectivity=0.1)",
		"alpha", "recall@10", "results", "shortfall.risk(model)")
	preds := predLT(100)
	truth := filteredTruth(env, ds, qs, preds, k)
	for _, alpha := range []int{1, 2, 4, 8, 16, 32} {
		got := make([][]topk.Result, len(qs))
		for i, q := range qs {
			got[i], _ = env.Execute(planner.Plan{Kind: planner.PostFilter, Alpha: alpha}, q, k, preds, executor.Options{Ef: 4 * alpha * k})
		}
		var results float64
		for _, g := range got {
			results += float64(len(g))
		}
		t2.AddRow(alpha, sharedRecall(got, truth), results/float64(len(qs)),
			planner.ShortfallRisk(alpha, k, 0.1))
	}
	t2.Print(w)
	fmt.Fprintln(w, "expected shape: results/query and recall rise toward k as alpha grows; model risk hits 0 near alpha=10")

	// E8c: offline blocking — the collection pre-partitioned on the
	// predicate attribute ([6, 79]) vs online bitmap blocking, for an
	// equality predicate.
	part, err := executor.BuildPartitioned(ds.Data, ds.Count, ds.Dim, envTable(env), "a",
		func(data []float32, n, d int) (index.Index, error) {
			if n == 0 {
				return index.NewFlat(nil, 0, d, nil)
			}
			return hnsw.Build(data, n, d, hnsw.Config{M: 8, Seed: 1})
		})
	if err != nil {
		fmt.Fprintf(w, "E8c: %v\n", err)
		return
	}
	eqPred := []filter.Predicate{{Column: "a", Op: filter.Eq, Value: filter.IntV(7)}}
	truthEq := filteredTruth(env, ds, qs, eqPred, k)
	online := make([][]topk.Result, len(qs))
	onlineLat := Timed(1, func() {
		for i, q := range qs {
			online[i], _ = env.Execute(planner.Plan{Kind: planner.PreFilter}, q, k, eqPred, executor.Options{Ef: 100})
		}
	}) / time.Duration(len(qs))
	offline := make([][]topk.Result, len(qs))
	offlineLat := Timed(1, func() {
		for i, q := range qs {
			offline[i], _ = part.SearchEq(q, k, 7, index.Params{Ef: 100})
		}
	}) / time.Duration(len(qs))
	t3 := NewTable("E8c offline vs online blocking (a = 7, selectivity ~0.001)",
		"blocking", "recall@10", "mean.latency")
	t3.AddRow("online (bitmap pre-filter)", sharedRecall(online, truthEq), onlineLat)
	t3.AddRow("offline (pre-partitioned)", sharedRecall(offline, truthEq), offlineLat)
	t3.Print(w)
	fmt.Fprintln(w, "expected shape: equal recall; offline blocking saves the O(n) bitmap build and the blocked traversal, an edge that grows with n (the compiled bitmap costs ~0.5 ns/row) — its cost moved to build time and rigidity")
}

// envTable exposes the attribute table of the hybrid env.
func envTable(e *executor.Env) *filter.Table { return e.Attrs }

// E12b — plan selection quality: the optimizer's pick, cold (no
// statistics: static inputs) and warm (after a mixed 1/10/50 % warm-up:
// the HNSW's measured probe cost and the calibrated cost ratios),
// against the per-selectivity oracle (the fastest plan measured),
// reported as latency regret (Section 2.3, cost-based selection; open
// problem 3). The last column says whether pre_filter is the oracle —
// the regime, if any, where that operator earns its place.
func init() {
	register("E12b", "cost-based plan selection on measured inputs tracks the measured-best plan", runE12b)
}

func runE12b(w io.Writer, scale int) {
	n := scaled(8000, scale, 2000)
	env, ds, err := hybridEnv(n)
	if err != nil {
		fmt.Fprintf(w, "E12b: %v\n", err)
		return
	}
	qs := ds.Queries(15, 0.05, 4)
	k := 10
	opts := executor.Options{Ef: 100}
	sels := []int64{2, 20, 100, 500, 900}
	type row struct {
		oracle     string
		lat        map[string]time.Duration
		cold, warm planner.Plan
	}
	rows := make([]row, len(sels))
	// Cold: the fresh Env has served nothing, so it plans on static
	// inputs. Everything it runs from here on is measured.
	for i, selPermille := range sels {
		rows[i].cold, _ = env.Plan(k, predLT(selPermille), "", nil)
	}
	for i, selPermille := range sels {
		preds := predLT(selPermille)
		r := &rows[i]
		r.lat = map[string]time.Duration{}
		var eligible []planner.Plan
		for _, plan := range planner.Enumerate(true, 4) {
			// A (c,k)-search must return k results when they exist, so
			// the oracle disqualifies plans that starve: a plan that is
			// "fast" because it found almost nothing is not a winner.
			var returned int
			for _, q := range qs {
				res, _ := env.Execute(plan, q, k, preds, opts)
				returned += len(res)
			}
			if float64(returned) >= 0.9*float64(k*len(qs)) {
				eligible = append(eligible, plan)
			}
		}
		// Whichever plan is timed first reads slow: pre_filter over few
		// survivors runs brute_force's code, yet timed once each in a
		// fixed order the second of the two won by 1-2 us. Plans are
		// timed in three interleaved rounds and keep their best.
		for round := 0; round < 3; round++ {
			for _, plan := range eligible {
				name := plan.Kind.String()
				if d := measurePlan(env, qs, k, preds, plan); round == 0 || d < r.lat[name] {
					r.lat[name] = d
				}
			}
		}
		for _, plan := range eligible {
			if name := plan.Kind.String(); r.oracle == "" || r.lat[name] < r.lat[r.oracle] {
				r.oracle = name
			}
		}
	}

	// Warm-up: the filtered_search mix, planned by the optimizer itself,
	// on a fresh tracker — the oracle's forced plans above are not the
	// workload.
	env.Stats = stats.New("e12b")
	for i, q := range ds.Queries(90, 0.05, 5) {
		env.Search(q, k, predLT([]int64{10, 100, 500}[i%3]), opts, "") //nolint:errcheck
	}
	for i, selPermille := range sels {
		rows[i].warm, _ = env.Plan(k, predLT(selPermille), "", nil)
	}
	comps, probes := env.Stats.MeanProbeComps()
	cal := env.Stats.Calibration()

	t := NewTable(fmt.Sprintf("E12b plan-picker regret (n=%d, ef=%d)", n, opts.Ef),
		"selectivity", "oracle.plan", "oracle.lat", "cold.plan", "cold.lat", "warm.plan", "warm.lat", "pre_filter.path", "pre_filter.is.oracle")
	for i, r := range rows {
		lat := func(p planner.Plan) time.Duration {
			if d, ok := r.lat[p.Kind.String()]; ok {
				return d
			}
			return measurePlan(env, qs, k, predLT(sels[i]), p) // starved: never the oracle
		}
		// Below the executor's exact cutoff pre_filter scans its
		// survivors with the flat index — brute_force's own path.
		path := "index"
		if int(sels[i])*n/1000 <= max(16*k, 256) {
			path = "flat"
		}
		t.AddRow(float64(sels[i])/1000, r.oracle, r.lat[r.oracle], r.cold.Kind.String(), lat(r.cold),
			r.warm.Kind.String(), lat(r.warm), path, r.oracle == planner.PreFilter.String())
	}
	t.Print(w)
	fmt.Fprintf(w, "inputs: index_comps cold %.0f (16*ceil(sqrt(n))), warm %.0f measured over %d probes; attr_cost_ratio cold %.3f, warm %.3f\n",
		planner.Env{N: n}.Normalized().IndexComps, comps, probes,
		planner.Env{}.Normalized().AttrCostRatio, cal.NsPerAttrEval/cal.NsPerComp)
	fmt.Fprintln(w, "expected shape: warm picks match the oracle or stay within a small factor of it; where pre_filter runs the flat path it is brute_force's code, so either may time faster")
	attrCostTable(w, env, n, ds.Dim)
}

// attrCostTable measures what planner.Env.AttrCostRatio models: the
// cost of one attribute check against one distance computation, for
// both compiled forms (the column-at-a-time evaluator exhaustive plans
// pay on every row, the per-id matcher traversals pay per visited
// node), at the experiment's dimension and at d=128.
func attrCostTable(w io.Writer, env *executor.Env, n, d int) {
	t := NewTable(fmt.Sprintf("E12b attribute-check cost vs distance computation (n=%d)", n),
		"d", "ns/distance", "ns/attr.block", "ns/attr.id", "ratio.block", "ratio.id")
	cp, err := env.Attrs.Compile(predLT(100))
	if err != nil {
		fmt.Fprintf(w, "E12b: %v\n", err)
		return
	}
	bm := cp.Bitmap()
	block := perRow(n, func() { cp.EvalRange(bm, 0, n) })
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i * 7919 % n) // a traversal's ids are not sequential
	}
	matched := 0
	perID := perRow(n, func() {
		for _, id := range ids {
			if cp.Match(id) {
				matched++
			}
		}
	})
	for _, dd := range []int{d, 128} {
		ds := dataset.Clustered(n, dd, 16, 0.4, 1)
		fl, err := index.NewFlat(ds.Data, ds.Count, ds.Dim, nil)
		if err != nil {
			fmt.Fprintf(w, "E12b: %v\n", err)
			return
		}
		q := ds.Queries(1, 0.05, 4)[0]
		dist := perRow(n, func() { fl.SearchTail(q, 10, index.Params{}, 0, nil) }) //nolint:errcheck
		t.AddRow(dd, dist, block, perID, block/dist, perID/dist)
	}
	t.Print(w)
	fmt.Fprintln(w, "planner.Env.AttrCostRatio defaults to the block ratio (the n*attr term of exhaustive plans dominates; the per-id ratio only scales the visit term, which is >= 1 per visit anyway)")
}

// perRow is the best-of-five time of fn divided by the n rows it covers,
// in nanoseconds.
func perRow(n int, fn func()) float64 {
	best := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		if d := Timed(20, fn); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(n)
}

// measurePlan is the mean latency of plan over qs, each query run 20
// times.
func measurePlan(env *executor.Env, qs [][]float32, k int, preds []filter.Predicate, plan planner.Plan) time.Duration {
	return Timed(20, func() {
		for _, q := range qs {
			env.Execute(plan, q, k, preds, executor.Options{Ef: 100}) //nolint:errcheck
		}
	}) / time.Duration(len(qs))
}
