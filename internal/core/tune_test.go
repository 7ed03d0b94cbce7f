package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/topk"
	"vdbms/internal/tuner"
	"vdbms/internal/vec"
)

// TestKnobResolutionPrecedence pins the layered parameter-resolution
// contract end to end on a real collection: explicit knobs beat a
// recall target, a target resolves through the frontier (safe default
// while cold), collection defaults come next, and the index's
// built-in defaults last — with zeros passing through unset at every
// layer, never silently dropped.
func TestKnobResolutionPrecedence(t *testing.T) {
	const n = 1000
	ds := dataset.Uniform(n, 8, 7)
	c, err := NewCollection("knobs", Schema{Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("hnsw", nil); err != nil {
		t.Fatal(err)
	}
	q := ds.Row(0)

	search := func(req SearchRequest) SearchResult {
		t.Helper()
		req.Vector, req.K = q, 5
		dec, err := c.Search(bg, req)
		if err != nil {
			t.Fatal(err)
		}
		return dec
	}

	// Explicit Ef wins over everything, including a target.
	dec := search(SearchRequest{Ef: 77, TargetRecall: 0.95})
	if dec.Ef != 77 || dec.ParamSource != SourceExplicit {
		t.Fatalf("explicit ef: got %+v", dec)
	}
	// An explicit NProbe alone also pins the pair: Ef stays unset (0)
	// rather than being filled from another layer.
	dec = search(SearchRequest{NProbe: 3})
	if dec.NProbe != 3 || dec.Ef != 0 || dec.ParamSource != SourceExplicit {
		t.Fatalf("explicit nprobe: got %+v", dec)
	}
	// A per-query target with a cold frontier resolves to the safe
	// default: the ladder maximum for the index's knob (ef for hnsw).
	maxEf := tuner.EfLadder[len(tuner.EfLadder)-1]
	dec = search(SearchRequest{TargetRecall: 0.9})
	if dec.Ef != maxEf || dec.ParamSource != SourceSafeDefault {
		t.Fatalf("cold target: got %+v, want ef=%d source=%s", dec, maxEf, SourceSafeDefault)
	}
	// The collection-level target behaves identically.
	c.SetTargetRecall(0.9)
	dec = search(SearchRequest{})
	if dec.Ef != maxEf || dec.ParamSource != SourceSafeDefault {
		t.Fatalf("collection target: got %+v", dec)
	}
	c.SetTargetRecall(0)
	// Collection defaults apply when no target is in play.
	c.SetSearchDefaults(40, 0)
	dec = search(SearchRequest{})
	if dec.Ef != 40 || dec.ParamSource != SourceCollectionDefault {
		t.Fatalf("collection default: got %+v", dec)
	}
	// ...but a target still outranks them.
	dec = search(SearchRequest{TargetRecall: 0.9})
	if dec.Ef != maxEf || dec.ParamSource != SourceSafeDefault {
		t.Fatalf("target over defaults: got %+v", dec)
	}
	c.SetSearchDefaults(0, 0)
	// Nothing set anywhere: zeros pass through to the index defaults.
	dec = search(SearchRequest{})
	if dec.Ef != 0 || dec.NProbe != 0 || dec.ParamSource != SourceIndexDefault {
		t.Fatalf("index default: got %+v", dec)
	}
}

// TestTunerConvergesDegradedIndex is the acceptance test for the
// recall-SLO tuner: a 50k-vector collection served by a deliberately
// coarse IVF index (64 lists) and a 0.95 recall@10 target. Before any
// tuning pass, queries run at the safe default (the nprobe ladder
// maximum). After passes replay the sampled workload across the
// ladder, the tuner must resolve a trusted nprobe that (a) actually
// serves recall@10 >= 0.95 against brute-force ground truth and (b)
// is measurably cheaper than the static worst-case it replaces.
func TestTunerConvergesDegradedIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-row dataset")
	}
	const (
		n      = 50_000
		d      = 8
		k      = 10
		nq     = 64
		target = 0.95
	)
	ds := dataset.Uniform(n, d, 31)
	c, err := NewCollection("tune", Schema{Dim: d})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("ivfflat", map[string]int{"nlist": 64}); err != nil {
		t.Fatal(err)
	}
	c.EnableTune(TuneConfig{TargetRecall: target, ReservoirSize: 2 * nq, PassSamples: nq})
	defer c.DisableTune()

	queries := ds.Queries(nq, 0.1, 37)
	truth := dataset.GroundTruth(vec.Distance(vec.L2), ds, queries, k)
	recallOf := func(i int, res []Result) float64 {
		inTruth := map[int64]bool{}
		for _, r := range truth[i] {
			inTruth[r.ID] = true
		}
		hits := 0
		for _, r := range res {
			if inTruth[r.ID] {
				hits++
			}
		}
		return float64(hits) / float64(k)
	}

	// Cold: the target resolves to the safe default (ladder max) and
	// fills the reservoir with the live workload.
	maxNProbe := tuner.NProbeLadder[len(tuner.NProbeLadder)-1]
	for i, q := range queries {
		dec, err := c.Search(bg, SearchRequest{Vector: q, K: k})
		if err != nil {
			t.Fatal(err)
		}
		if dec.ParamSource != SourceSafeDefault || dec.NProbe != maxNProbe {
			t.Fatalf("cold query %d: got %+v, want safe default nprobe=%d", i, dec, maxNProbe)
		}
	}

	rep, err := c.TuneNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != "ok" || rep.Samples == 0 {
		t.Fatalf("pass: %+v", rep)
	}
	if rep.Kind != "ivfflat" || rep.Knob != "nprobe" {
		t.Fatalf("pass tuned %s/%s, want ivfflat/nprobe", rep.Kind, rep.Knob)
	}
	if !rep.Trusted {
		t.Fatalf("frontier not trusted after a full pass: %+v", rep)
	}
	if rep.Resolved >= maxNProbe {
		t.Fatalf("resolved nprobe %d is not cheaper than the static worst-case %d", rep.Resolved, maxNProbe)
	}
	if rep.BestRecall < target {
		t.Fatalf("best frontier recall %.4f below target %.2f", rep.BestRecall, target)
	}

	// Warm: the same workload must now serve from the tuned parameter
	// and still meet the target against ground truth.
	var sum float64
	for i, q := range queries {
		dec, err := c.Search(bg, SearchRequest{Vector: q, K: k})
		if err != nil {
			t.Fatal(err)
		}
		if dec.ParamSource != SourceTuned {
			t.Fatalf("warm query %d: source %q, want %q (dec %+v)", i, dec.ParamSource, SourceTuned, dec)
		}
		if dec.NProbe != rep.Resolved {
			t.Fatalf("warm query %d ran nprobe=%d, tuner resolved %d", i, dec.NProbe, rep.Resolved)
		}
		sum += recallOf(i, dec.Hits)
	}
	if got := sum / nq; got < target-0.01 {
		t.Fatalf("tuned serving recall@10 = %.4f, want >= %.2f", got, target)
	}
}

// TestTuneHysteresisAcrossPasses: repeated passes over the same
// workload must settle on one parameter, not oscillate between
// adjacent rungs — the frontier's margin holds the resolved value
// steady when a cheaper rung only grazes the target.
func TestTuneHysteresisAcrossPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-pass replay")
	}
	const n, d, k, nq = 20_000, 8, 10, 32
	ds := dataset.Uniform(n, d, 41)
	c, err := NewCollection("hyst", Schema{Dim: d})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("ivfflat", map[string]int{"nlist": 32}); err != nil {
		t.Fatal(err)
	}
	c.EnableTune(TuneConfig{TargetRecall: 0.9, ReservoirSize: nq, PassSamples: nq})
	defer c.DisableTune()
	for _, q := range ds.Queries(nq, 0.1, 43) {
		if _, err := c.Search(bg, SearchRequest{Vector: q, K: k}); err != nil {
			t.Fatal(err)
		}
	}
	resolved := map[int]bool{}
	for pass := 0; pass < 4; pass++ {
		rep, err := c.TuneNow()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Outcome != "ok" || !rep.Trusted {
			t.Fatalf("pass %d: %+v", pass, rep)
		}
		resolved[rep.Resolved] = true
	}
	if len(resolved) > 2 {
		t.Fatalf("resolved parameter oscillated across %d values: %v", len(resolved), resolved)
	}
}

// TestDriftBuildGraphReselect is the acceptance test for
// drift-triggered index re-selection: an unindexed collection past
// the scan/graph crossover must get a graph index built in the
// background — after the decision repeats on consecutive passes —
// while concurrent searches keep answering without blocking or
// erroring. CI pins this under -race.
func TestDriftBuildGraphReselect(t *testing.T) {
	const n, d, k = 6000, 8, 5
	ds := dataset.Uniform(n, d, 53)
	c, err := NewCollection("drift", Schema{Dim: d})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	c.EnableTune(TuneConfig{Reselect: true, PassSamples: 4})
	defer c.DisableTune()
	for _, q := range ds.Queries(8, 0.1, 59) {
		if _, err := c.Search(bg, SearchRequest{Vector: q, K: k}); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent query load for the whole re-selection: searches must
	// never error, before, during, or after the background swap.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qs := ds.Queries(16, 0.2, seed)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Search(bg, SearchRequest{Vector: qs[i%len(qs)], K: k}); err != nil {
					errc <- err
					return
				}
			}
		}(int64(100 + w))
	}

	// Pass 1 observes the drift; pass 2 confirms and fires the build.
	rep1, err := c.TuneNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Outcome != "no_index" || rep1.Drift != "build_graph" || rep1.DriftFired {
		t.Fatalf("pass 1: %+v, want observed-but-unfired build_graph", rep1)
	}
	rep2, err := c.TuneNow()
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.DriftFired {
		t.Fatalf("pass 2: %+v, want build_graph fired", rep2)
	}

	c.WaitForIndex()
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("concurrent search failed during re-selection: %v", err)
	default:
	}
	kind, covered, _ := c.IndexInfo()
	if kind != "hnsw" || covered != n {
		t.Fatalf("after re-selection: kind=%q covered=%d, want hnsw over %d rows", kind, covered, n)
	}
	// The swapped-in index must actually serve.
	res, err := c.Search(bg, SearchRequest{Vector: ds.Row(0), K: k})
	if err != nil || len(res.Hits) != k {
		t.Fatalf("post-swap search: %v (%d hits)", err, len(res.Hits))
	}
}

// TestDriftDebounceAndCooldown pins the oscillation guards: one
// sighting never fires, and after a fire the detector stays quiet for
// the cooldown window even when the condition persists.
func TestDriftDebounceAndCooldown(t *testing.T) {
	const n, d = 5000, 8
	ds := dataset.Uniform(n, d, 61)
	c, err := NewCollection("cool", Schema{Dim: d})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	c.EnableTune(TuneConfig{Reselect: true, PassSamples: 2})
	defer c.DisableTune()

	pass := func() TuneReport {
		t.Helper()
		rep, err := c.TuneNow()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := pass(); rep.DriftFired {
		t.Fatalf("first sighting fired immediately: %+v", rep)
	}
	if rep := pass(); !rep.DriftFired {
		t.Fatalf("second consecutive sighting did not fire: %+v", rep)
	}
	c.WaitForIndex()
	// Re-create the same drift condition and verify the cooldown
	// absorbs it: driftCooldownPasses passes decrement the window, and
	// only after it clears does the debounce cycle (observe, confirm)
	// run again.
	c.DropIndex()
	for i := 0; i < driftCooldownPasses; i++ {
		if rep := pass(); rep.DriftFired {
			t.Fatalf("pass %d fired during cooldown: %+v", i, rep)
		}
	}
	if rep := pass(); rep.DriftFired {
		t.Fatalf("first post-cooldown sighting fired without debounce: %+v", rep)
	}
	if rep := pass(); !rep.DriftFired {
		t.Fatalf("second post-cooldown sighting did not fire: %+v", rep)
	}
	c.WaitForIndex()
	if kind, _, _ := c.IndexInfo(); kind != "hnsw" {
		t.Fatalf("kind %q after cooldown refire, want hnsw", kind)
	}
}

// TestStrengthenRecipe pins the recall-exhausted escalation ladder.
func TestStrengthenRecipe(t *testing.T) {
	kind, opts := strengthenRecipe("hnsw", map[string]int{"m": 4, "efc": 16})
	if kind != "hnsw" || opts["m"] != 8 || opts["efc"] != 32 {
		t.Fatalf("got %s %v, want doubled hnsw", kind, opts)
	}
	// Defaults (absent opts) double from the family defaults.
	kind, opts = strengthenRecipe("hnsw", nil)
	if kind != "hnsw" || opts["m"] != 32 || opts["efc"] != 400 {
		t.Fatalf("got %s %v, want m=32 efc=400", kind, opts)
	}
	// Capped: nothing stronger to propose.
	if kind, _ = strengthenRecipe("hnsw", map[string]int{"m": 64, "efc": 1024}); kind != "" {
		t.Fatalf("at-cap recipe proposed %q, want none", kind)
	}
	// Doubling clamps to the cap rather than overshooting.
	_, opts = strengthenRecipe("hnsw", map[string]int{"m": 48, "efc": 800})
	if opts["m"] != 64 || opts["efc"] != 1024 {
		t.Fatalf("got %v, want clamped m=64 efc=1024", opts)
	}
	// A non-graph family escalates to the graph default.
	if kind, opts = strengthenRecipe("lsh", map[string]int{"tables": 4}); kind != "hnsw" || opts != nil {
		t.Fatalf("got %s %v, want default hnsw", kind, opts)
	}
}

// TestTuneSamplingSharedWithAudit: the reservoir gate must stay on
// while EITHER the auditor or the tuner wants samples, and turn off
// only when both are done.
func TestTuneSamplingSharedWithAudit(t *testing.T) {
	c, _ := newCol(t, 50)
	if c.sampling.Load() {
		t.Fatal("sampling on before anyone asked")
	}
	c.EnableAudit(AuditConfig{})
	c.EnableTune(TuneConfig{})
	if !c.sampling.Load() {
		t.Fatal("sampling off with audit+tune enabled")
	}
	c.DisableAudit()
	if !c.sampling.Load() {
		t.Fatal("disabling the audit turned off the tuner's sampling")
	}
	c.DisableTune()
	if c.sampling.Load() {
		t.Fatal("sampling still on after both disabled")
	}
}

// TestTuneLoopLifecycle: the background loop starts, runs passes, and
// stops cleanly on Disable — reconfiguration mid-flight included.
func TestTuneLoopLifecycle(t *testing.T) {
	const n = 2000
	ds := dataset.Uniform(n, 8, 67)
	c, err := NewCollection("loop", Schema{Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("ivfflat", map[string]int{"nlist": 16}); err != nil {
		t.Fatal(err)
	}
	c.EnableTune(TuneConfig{Interval: time.Millisecond, TargetRecall: 0.9, PassSamples: 4})
	for _, q := range ds.Queries(8, 0.1, 71) {
		if _, err := c.Search(bg, SearchRequest{Vector: q, K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	// Let the loop take a few passes, reconfigure it live, then stop.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if fr := c.curFrontier.Load(); fr != nil {
			if _, ok := fr.BestRecall(5); ok {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	fr := c.curFrontier.Load()
	if fr == nil {
		t.Fatal("background loop never published a frontier")
	}
	if _, ok := fr.BestRecall(5); !ok {
		t.Fatal("background loop never produced a trusted measurement")
	}
	c.EnableTune(TuneConfig{Interval: time.Millisecond, TargetRecall: 0.8, PassSamples: 4})
	c.DisableTune()
	// After Disable the loop is gone: TuneNow still works on demand.
	if _, err := c.TuneNow(); err != nil {
		t.Fatal(err)
	}
	if got := c.TargetRecall(); got != 0.8 {
		t.Fatalf("target recall %v after reconfigure, want 0.8", got)
	}
}

// TestAdaptivePlanningOverhead gates the cost of the feedback loop on
// the hot path: a search resolving its parameters through the tuned
// frontier (one atomic load + a ladder walk over a published table)
// must stay within 5% of the same search with explicit static
// parameters. Measured as interleaved medians to cancel machine
// drift; the measured work is identical by construction (the tuned
// frontier resolves to the same ef the static run pins).
func TestAdaptivePlanningOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	const n, d, k, nq = 10_000, 32, 10, 64
	ds := dataset.Uniform(n, d, 73)
	c, err := NewCollection("ovh", Schema{Dim: d})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("hnsw", nil); err != nil {
		t.Fatal(err)
	}
	c.EnableTune(TuneConfig{TargetRecall: 0.9, ReservoirSize: nq, PassSamples: nq})
	defer c.DisableTune()
	queries := ds.Queries(nq, 0.1, 79)
	for _, q := range queries {
		if _, err := c.Search(bg, SearchRequest{Vector: q, K: k}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.TuneNow()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Trusted {
		t.Fatalf("frontier not trusted: %+v", rep)
	}
	staticEf := rep.Resolved // identical search work on both sides

	measure := func(req SearchRequest) time.Duration {
		start := time.Now()
		for _, q := range queries {
			req.Vector, req.K = q, k
			if _, err := c.Search(bg, req); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	median := func(xs []time.Duration) time.Duration {
		for i := 1; i < len(xs); i++ {
			for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
				xs[j], xs[j-1] = xs[j-1], xs[j]
			}
		}
		return xs[len(xs)/2]
	}
	// A timing ratio on a shared host is noisy; the gate retries so a
	// scheduler hiccup cannot fail CI, but a real regression (which
	// reproduces every attempt) still does.
	const attempts = 3
	var lastRatio float64
	for a := 0; a < attempts; a++ {
		var sTimes, aTimes []time.Duration
		for r := 0; r < 5; r++ {
			sTimes = append(sTimes, measure(SearchRequest{Ef: staticEf}))
			aTimes = append(aTimes, measure(SearchRequest{})) // resolves via frontier
		}
		s, ad := median(sTimes), median(aTimes)
		lastRatio = float64(ad) / float64(s)
		if lastRatio <= 1.05 {
			return
		}
	}
	t.Fatalf("adaptive planning overhead %.1f%% > 5%% across %d attempts",
		(lastRatio-1)*100, attempts)
}

// TestTuneReportJSONShape keeps the report marshalable for the HTTP
// debug surfaces.
func TestTuneReportJSONShape(t *testing.T) {
	rep := TuneReport{Collection: "x", Outcome: "ok", Kind: "hnsw", Knob: "ef"}
	if s := fmt.Sprintf("%+v", rep); s == "" {
		t.Fatal("unprintable report")
	}
}

// TestRootSpanCarriesDecision: a traced query's root span must carry
// the executed plan and the parameter source as tags, and the
// resolved knobs as annotations — satellite of the plan-visibility
// work (X-Vdbms-Plan is the HTTP half; this is the trace half).
func TestRootSpanCarriesDecision(t *testing.T) {
	c, ds := newCol(t, 200)
	if err := c.CreateIndex("hnsw", nil); err != nil {
		t.Fatal(err)
	}
	dec, err := c.Search(bg, SearchRequest{Vector: ds.Row(0), K: 5, Ef: 48, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := dec.Trace
	if rep == nil {
		t.Fatal("no trace")
	}
	if rep.Tags["plan"] != dec.Plan {
		t.Fatalf("root span plan tag %q, want %q", rep.Tags["plan"], dec.Plan)
	}
	if rep.Tags["param_source"] != SourceExplicit {
		t.Fatalf("root span param_source %q, want %q", rep.Tags["param_source"], SourceExplicit)
	}
	if rep.Annotations["ef"] != 48 {
		t.Fatalf("root span ef annotation %d, want 48", rep.Annotations["ef"])
	}
}

// gatedIndex is a flat index whose Search parks on gate while it is
// armed, announcing each parked call on parked — how a test holds a
// tune pass in flight inside ReplayANN.
type gatedIndex struct {
	index.Index
	mu     sync.Mutex
	gate   chan struct{}
	parked chan struct{}
}

func (g *gatedIndex) Search(q []float32, k int, p index.Params) ([]topk.Result, error) {
	g.mu.Lock()
	gate, parked := g.gate, g.parked
	g.mu.Unlock()
	if gate != nil {
		select {
		case parked <- struct{}{}:
		default:
		}
		<-gate
	}
	return g.Index.Search(q, k, p)
}

var (
	gatedOnce sync.Once
	gatedLast *gatedIndex // the most recently built "testgated" index
)

func registerGatedIndex() {
	gatedOnce.Do(func() {
		index.Register("testgated", func(data []float32, n, d int, _ vec.Metric, _ map[string]int) (index.Index, error) {
			fl, err := index.NewFlat(data, n, d, nil)
			gatedLast = &gatedIndex{Index: fl}
			return gatedLast, err
		})
	})
}

// TestTuneReconfigureDuringPass is the regression test for the tuneMu
// deadlock: EnableTune (and DisableTune, and Close through it) used to
// wait for the loop to exit while holding tuneMu, which a pass in
// flight takes in frontierFor and maybeReselect. The pass is parked
// inside its ANN replay, EnableTune is called again, and only once it
// is provably inside (it holds the lifecycle lock) is the pass let go —
// straight into maybeReselect's tuneMu.
func TestTuneReconfigureDuringPass(t *testing.T) {
	registerGatedIndex()
	const n, d = 300, 8
	ds := dataset.Clustered(n, d, 4, 0.4, 83)
	c, err := NewCollection("reconf", Schema{Dim: d})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("testgated", nil); err != nil {
		t.Fatal(err)
	}
	g := gatedLast
	cfg := TuneConfig{Interval: time.Millisecond, TargetRecall: 0.9, PassSamples: 4, Reselect: true}
	c.EnableTune(cfg)
	for _, q := range ds.Queries(8, 0.1, 89) {
		if _, err := c.Search(bg, SearchRequest{Vector: q, K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	gate, parked := make(chan struct{}), make(chan struct{}, 1)
	g.mu.Lock()
	g.gate, g.parked = gate, parked
	g.mu.Unlock()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("no tune pass reached its ANN replay")
	}

	reconfigured := make(chan struct{})
	go func() {
		defer close(reconfigured)
		cfg.TargetRecall = 0.8
		c.EnableTune(cfg)
	}()
	for c.tuneLife.TryLock() { // until EnableTune is inside, waiting for the loop
		c.tuneLife.Unlock()
		time.Sleep(time.Millisecond)
	}
	g.mu.Lock()
	g.gate = nil
	g.mu.Unlock()
	close(gate)
	select {
	case <-reconfigured:
	case <-time.After(10 * time.Second):
		t.Fatal("EnableTune deadlocked against the pass it was waiting for")
	}
	if got := c.TargetRecall(); got != 0.8 {
		t.Fatalf("target recall %v after reconfigure, want 0.8", got)
	}
	if err := c.Close(); err != nil { // stops the new loop through DisableTune
		t.Fatal(err)
	}
	if c.tuneStop != nil {
		t.Fatal("Close left the tune loop running")
	}
}
