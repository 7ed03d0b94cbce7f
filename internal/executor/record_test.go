package executor

import (
	"fmt"
	"math"
	"testing"
	"time"

	"vdbms/internal/bitset"
	"vdbms/internal/dataset"
	"vdbms/internal/filter"
	"vdbms/internal/index/ivf"
	"vdbms/internal/obs"
	"vdbms/internal/planner"
	"vdbms/internal/stats"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// published reads every process-wide view a query's record feeds: the
// stage histograms' sums and counts, the per-index counters of the two
// families an Env probes, and the Env's tracker.
type published struct {
	stageSum   float64
	stageCount int64
	probes     int64
	comps      int64
	ann        stats.Snapshot
}

func readPublished(env *Env) published {
	var p published
	for _, h := range stageSeconds {
		p.stageSum += h.Sum()
		p.stageCount += h.Count()
	}
	for _, name := range []string{env.ANN.Name(), env.Flat.Name()} {
		p.probes += obs.IndexProbes.With(name).Value()
		p.comps += obs.IndexDistanceComps.With(name).Value()
	}
	p.ann = env.tracker().Snapshot(0, 0, 0)
	return p
}

// trackerComps is the tracker's total ANN probe comps.
func trackerComps(s stats.Snapshot) int64 {
	return int64(math.Round(s.ANNProbeMeanComps * float64(s.ANNProbes)))
}

// TestRecordReconciles: the trace and the process-wide views are read
// from the same record, so they agree exactly. Over 100 queries per
// forced plan, 100 planned ones, a batch, multi-vector and range
// queries, the traces' stage durations sum to what the stage histograms
// gained (to float rounding), their distance_comps to what the per-index
// counters gained, and their ANN probes' comps less their tail rows to
// what the tracker's probe cost gained. It runs on an index over every
// row and on one over the first 3 000 of 4 000, whose probes also scan
// the tail: there the traces' tail rows sum to the records'.
func TestRecordReconciles(t *testing.T) {
	for _, covered := range []int{4000, 3000} {
		t.Run(fmt.Sprintf("covered=%d", covered), func(t *testing.T) { recordReconciles(t, covered) })
	}
}

func recordReconciles(t *testing.T, covered int) {
	env, ds := buildTailEnv(t, 4000, covered)
	env.Stats = stats.New("reconcile")
	qs := ds.Queries(100, 0.05, 3)
	var traceNanos, traceComps, annComps, traceTail, recTail int64
	add := func(rec *Record) {
		t.Helper()
		if rec.Err != nil {
			t.Fatal(rec.Err)
		}
		recTail += rec.Tail()
		for _, sp := range rec.Trace("search", 0).Children {
			traceNanos += sp.DurationNanos
			traceComps += sp.Annotations["distance_comps"]
			traceTail += sp.Annotations["tail_rows"]
			if sp.Stage == "index_probe" && sp.Tags["index"] == env.ANN.Name() {
				annComps += sp.Annotations["distance_comps"] - sp.Annotations["tail_rows"]
			}
		}
	}
	preds := func(i int) []filter.Predicate {
		if i%2 == 0 {
			return nil
		}
		return catLt(int64(1 + i%60))
	}
	before := readPublished(env)
	for _, p := range planner.Enumerate(true, 4) {
		for i, q := range qs {
			var rec Record
			env.Execute(p, q, 10, preds(i), Options{Ef: 32, Record: &rec}) //nolint:errcheck
			add(&rec)
		}
	}
	for i, q := range qs {
		var rec Record
		env.Search(q, 10, preds(i), Options{Ef: 32, Record: &rec}, "") //nolint:errcheck
		add(&rec)
	}
	_, recs, err := env.SearchBatch(planner.Plan{Kind: planner.PreFilter}, qs[:20], 10, catLt(30), Options{Ef: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		add(&recs[i])
	}
	owner := make([]int64, ds.Count)
	for i := range owner {
		owner[i] = int64(i / 4)
	}
	m := NewEntityMap(owner)
	for i := 0; i+3 <= 30; i += 3 {
		var rec Record
		env.MultiVectorANN(m, vec.AggMin, qs[i:i+3], nil, 5, 0, nil, Options{Ef: 32, Record: &rec}) //nolint:errcheck
		if rec.Probes != 3 || len(rec.Trace("search", 0).Children) != 1 {
			t.Fatalf("multi-vector record: %d probes, trace %+v; want 3 probes folded into one index_probe", rec.Probes, rec.Trace("search", 0))
		}
		add(&rec)
	}
	for i, q := range qs[:20] {
		var rec Record
		env.Execute(planner.Plan{Kind: planner.BruteForce}, q, ds.Count, preds(i), Options{Record: &rec, Window: topk.Window{Radius: 0.5}}) //nolint:errcheck
		add(&rec)
	}
	after := readPublished(env)

	if diff := math.Abs(after.stageSum - before.stageSum - float64(traceNanos)/1e9); diff > 1e-6 {
		t.Fatalf("stage histograms gained %.9fs, traces sum to %.9fs: off by %.3gs", after.stageSum-before.stageSum, float64(traceNanos)/1e9, diff)
	}
	if got := after.comps - before.comps; got != traceComps {
		t.Fatalf("vdbms_index_distance_comps_total gained %d, traces sum to %d", got, traceComps)
	}
	if got := trackerComps(after.ann) - trackerComps(before.ann); got != annComps || annComps == 0 {
		t.Fatalf("tracker probe comps gained %d, traces' %s probes sum to %d", got, env.ANN.Name(), annComps)
	}
	if traceTail != recTail || (traceTail > 0) != (covered < ds.Count) {
		t.Fatalf("traces carry %d tail rows, records %d, with the index over %d of %d rows", traceTail, recTail, covered, ds.Count)
	}
}

// TestReplayPublishesNothing: the recall loop's exact scan and ANN
// replay run the serving operators but publish nothing — no stage
// histogram, per-index counter or tracker observation moves — while
// answering what the serving path answers.
func TestReplayPublishesNothing(t *testing.T) {
	env, ds := buildEnv(t, 2000)
	env.Stats = stats.New("replay")
	q := ds.Queries(1, 0.05, 4)[0]
	del := bitset.New(ds.Count)
	del.Set(7)
	// Warm the tracker so a stray observation would show.
	if _, err := env.Execute(planner.Plan{Kind: planner.SingleStage}, q, 10, catLt(50), Options{Ef: 32}); err != nil {
		t.Fatal(err)
	}
	before := readPublished(env)
	truth, err := env.ExactGroundTruth(q, 10, catLt(50), del)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := env.ReplayANN(q, 10, 32, 0, catLt(50), del)
	if err != nil {
		t.Fatal(err)
	}
	after := readPublished(env)
	if after.stageCount != before.stageCount || after.stageSum != before.stageSum || after.probes != before.probes || after.comps != before.comps {
		t.Fatalf("replay published: before %+v, after %+v", before, after)
	}
	if after.ann.ANNProbes != before.ann.ANNProbes || after.ann.Calibration != before.ann.Calibration || after.ann.Selectivity["cat"].Count != before.ann.Selectivity["cat"].Count {
		t.Fatalf("replay fed the tracker: before %+v, after %+v", before.ann, after.ann)
	}
	if st.DistanceComps == 0 || len(res) == 0 {
		t.Fatalf("replay returned %d hits at %d comps", len(res), st.DistanceComps)
	}
	want, err := env.Execute(planner.Plan{Kind: planner.BruteForce}, q, 10, catLt(50), Options{Deleted: del})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if truth[i] != want[i] {
			t.Fatalf("ground truth %v, serving brute force %v", truth, want)
		}
	}
}

// TestRecordTrace: the trace lists the stages that ran in execution
// order with their counters — the plan's inputs and sources, the
// filter's survivors, the probe's index and work (the rows a bounded
// scan cut short included), the post-filter's fetched and kept — each
// lasting what the record measured.
func TestRecordTrace(t *testing.T) {
	env, ds := buildEnv(t, 2000)
	q := ds.Queries(1, 0.05, 5)[0]
	var rec Record
	if _, err := env.Execute(planner.Plan{Kind: planner.BruteForce}, q, 5, catLt(10), Options{Record: &rec}); err != nil {
		t.Fatal(err)
	}
	rep := rec.Trace("search", time.Second)
	if rep.Stage != "search" || rep.DurationNanos != int64(time.Second) || len(rep.Children) != 2 {
		t.Fatalf("brute-force trace %+v, want search root over filter and index_probe", rep)
	}
	f, p := rep.Children[0], rep.Children[1]
	if f.Stage != "filter" || f.Annotations["survivors"] != 200 || f.DurationNanos <= 0 {
		t.Fatalf("filter stage %+v, want 200 survivors", f)
	}
	if p.Stage != "index_probe" || p.Tags["index"] != "flat" || p.Annotations["k"] != 5 || p.Annotations["distance_comps"] != 200 {
		t.Fatalf("probe stage %+v, want flat k=5 over the 200 survivors", p)
	}

	rec = Record{}
	if _, err := env.Execute(planner.Plan{Kind: planner.PostFilter, Alpha: 4}, q, 5, catLt(50), Options{Ef: 64, Record: &rec}); err != nil {
		t.Fatal(err)
	}
	rep = rec.Trace("search", 0)
	if len(rep.Children) != 2 || rep.Children[0].Stage != "index_probe" || rep.Children[1].Stage != "post_filter" {
		t.Fatalf("post-filter trace %+v, want index_probe then post_filter", rep)
	}
	if a := rep.Children[1].Annotations; a["fetched"] != 20 || a["kept"] != 5 {
		t.Fatalf("post_filter annotations %v, want 20 fetched, 5 kept", a)
	}

	rec = Record{}
	_, plan, err := env.Search(q, 5, catLt(10), Options{Ef: 64, Record: &rec}, "")
	if err != nil {
		t.Fatal(err)
	}
	ps := rec.Trace("search", 0).Children[0]
	if ps.Stage != "plan" || ps.Tags["plan"] != plan.Kind.String() || ps.Tags["index_comps_source"] != "default" || ps.Tags["attr_cost_source"] != "default" {
		t.Fatalf("plan stage %+v, want plan %v from default inputs", ps, plan.Kind)
	}
	if a := ps.Annotations; a["selectivity_ppm"] <= 0 || a["index_comps"] <= 0 || a["attr_cost_ppm"] <= 0 {
		t.Fatalf("plan annotations %v", a)
	}

	// An exact L2 scan of rows longer than the kernel's cut stride cuts
	// most of them short: the probe span carries that count beside the
	// rows it touched.
	wide := dataset.Clustered(2000, 64, 8, 0.4, 1)
	wenv, err := NewEnv(wide.Data, wide.Count, wide.Dim, nil, nil, filter.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	rec = Record{}
	if _, err := wenv.Execute(planner.Plan{Kind: planner.BruteForce}, wide.Queries(1, 0.05, 5)[0], 5, nil, Options{Record: &rec}); err != nil {
		t.Fatal(err)
	}
	p = rec.Trace("search", 0).Children[0]
	if a := p.Annotations; p.Stage != "index_probe" || a["distance_comps"] != 2000 || a["abandoned"] <= 0 || a["abandoned"] >= 2000 || a["abandoned"] != rec.Probe.Abandoned {
		t.Fatalf("probe stage %+v, want 2000 comps, some of them abandoned (%d)", p, rec.Probe.Abandoned)
	}
	if _, ok := p.Annotations["tail_rows"]; ok {
		t.Fatalf("probe stage %+v of an exact scan carries tail rows", p)
	}

	// An index over the first 1 500 of 2 000 rows: the probe span counts
	// the tail rows it scanned — all 500 unfiltered, the 50 a cat < 10
	// predicate admits under one — among its comps.
	tenv, tds := buildTailEnv(t, 2000, 1500)
	for _, tc := range []struct {
		preds []filter.Predicate
		tail  int64
	}{{nil, 500}, {catLt(10), 50}} {
		rec = Record{}
		if _, err := tenv.Execute(planner.Plan{Kind: planner.SingleStage}, tds.Row(1800), 5, tc.preds, Options{Ef: 64, Record: &rec}); err != nil {
			t.Fatal(err)
		}
		p = rec.Trace("search", 0).Children[0]
		if a := p.Annotations; p.Stage != "index_probe" || p.Tags["index"] != "hnsw" || a["tail_rows"] != tc.tail || rec.Tail() != tc.tail || a["distance_comps"] <= tc.tail {
			t.Fatalf("tail probe stage %+v (record tail %d), want hnsw with %d tail rows among its comps", p, rec.Tail(), tc.tail)
		}
	}

	// The same rows under an ivfflat index built over the first 1 500
	// and extended over the other 500: the probe serves every row, so
	// its span reads no tail rows, and a row past the build comes back
	// through it.
	built, err := ivf.Build(tds.Data[:1500*tds.Dim], 1500, tds.Dim, ivf.Config{NList: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ext, ok := built.Extend(tds.Data, 2000)
	if !ok {
		t.Fatal("ivfflat refused to extend")
	}
	eenv := envOver(t, tds, ext)
	for _, preds := range [][]filter.Predicate{nil, catLt(10)} {
		rec = Record{}
		res, err := eenv.Execute(planner.Plan{Kind: planner.SingleStage}, tds.Row(1800), 5, preds, Options{NProbe: 16, Record: &rec})
		if err != nil {
			t.Fatal(err)
		}
		p = rec.Trace("search", 0).Children[0]
		if a := p.Annotations; p.Stage != "index_probe" || p.Tags["index"] != "ivfflat" || a["tail_rows"] != 0 || rec.Tail() != 0 || a["distance_comps"] <= 0 {
			t.Fatalf("extended probe stage %+v (record tail %d), want ivfflat with no tail rows", p, rec.Tail())
		}
		if len(res) == 0 || res[0].ID != 1800 || res[0].Dist != 0 {
			t.Fatalf("extended probe %v, want row 1800 first", res)
		}
	}
}

// TestTailCalibratesApart: a quantized index (ivf SQ) over the first
// 1 500 of 2 000 rows, probed once under a cat < 10 predicate. The
// tracker's per-comparison costs reconcile to the record: the tail scan
// is the one full-precision sample, its allowlist the one attribute
// sample, and the quantized sample is the rest of the probe's time over
// the rest of its comps.
func TestTailCalibratesApart(t *testing.T) {
	ds := dataset.Clustered(2000, 16, 8, 0.4, 1)
	sq, err := ivf.Build(ds.Data[:1500*ds.Dim], 1500, ds.Dim, ivf.Config{NList: 16, Variant: ivf.SQ, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	env := envOver(t, ds, sq)
	env.Stats = stats.New("tail-calibration")
	var rec Record
	if _, err := env.Execute(planner.Plan{Kind: planner.SingleStage}, ds.Row(1800), 5, catLt(10), Options{NProbe: 4, Record: &rec}); err != nil {
		t.Fatal(err)
	}
	if !rec.Quantized || rec.Tail() != 50 || rec.has(stageFilter) {
		t.Fatalf("record %+v: want a quantized probe with 50 tail rows and no filter stage", rec)
	}
	cal := env.Stats.Calibration()
	own := rec.stages[stageProbe] - rec.tail.scan - rec.tail.mask
	for _, c := range []struct {
		name       string
		scans      int64
		got, nanos float64
		per        int64
	}{
		{"quantized", cal.QuantScans, cal.NsPerQuantComp, float64(own), rec.Probe.DistanceComps - 50},
		{"full-precision", cal.CompScans, cal.NsPerComp, float64(rec.tail.scan), 50},
		{"attribute", cal.AttrScans, cal.NsPerAttrEval, float64(rec.tail.mask), 500},
	} {
		if want := c.nanos / float64(c.per); c.scans != 1 || math.Abs(c.got-want) > 1e-9*want {
			t.Fatalf("%s calibration: %d scans at %g ns each, want 1 at %g (record %+v)", c.name, c.scans, c.got, want, rec)
		}
	}
}
