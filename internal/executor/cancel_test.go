package executor

import (
	"context"
	"errors"
	"testing"
	"time"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	_ "vdbms/internal/index/knng"
	_ "vdbms/internal/index/nsg"
	_ "vdbms/internal/index/nsw"
	"vdbms/internal/planner"
	"vdbms/internal/stats"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// TestCancelledQueryStopsAndRecordsNothing runs every plan under a
// cancelled context: the allowlist build of the exhaustive plans polls
// it before its first block and the probe refuses to start, so each
// returns context.Canceled, as do a range and a page past a cursor —
// and none of them feeds the cost model a probe, a comparison timing or
// a selectivity it did not complete.
func TestCancelledQueryStopsAndRecordsNothing(t *testing.T) {
	env, ds := buildEnv(t, 20000)
	env.Stats = stats.New("cancel")
	q := ds.Queries(1, 0.05, 2)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range planner.Enumerate(true, 4) {
		for _, preds := range [][]int64{nil, {50}} {
			opts := Options{Ef: 64, Ctx: ctx}
			var err error
			if preds == nil {
				_, err = env.Execute(p, q, 10, nil, opts)
			} else {
				_, err = env.Execute(p, q, 10, catLt(preds[0]), opts)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v, preds %v: err %v, want context.Canceled", p.Kind, preds, err)
			}
		}
	}
	// A range and a page past a cursor stop the same way: the range on
	// the exact scan, the page on every plan.
	ranged := Options{Ctx: ctx, Window: topk.Window{Radius: 1e6}}
	if _, err := env.Execute(planner.Plan{Kind: planner.BruteForce}, q, 10, nil, ranged); !errors.Is(err, context.Canceled) {
		t.Fatalf("range: err %v, want context.Canceled", err)
	}
	for _, p := range planner.Enumerate(true, 4) {
		paged := Options{Ef: 64, Ctx: ctx, Window: topk.Window{After: &topk.Result{ID: 0, Dist: 0}}}
		if _, err := env.Execute(p, q, 10, catLt(50), paged); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v page: err %v, want context.Canceled", p.Kind, err)
		}
	}
	if _, n := env.Stats.MeanProbeComps(); n != 0 {
		t.Fatalf("%d cancelled probes recorded as probe cost", n)
	}
	if cal := env.Stats.Calibration(); cal.CompScans != 0 || cal.AttrScans != 0 {
		t.Fatalf("cancelled queries calibrated the cost model: %+v", cal)
	}

	// The same queries under a live context answer, and are recorded.
	for _, p := range planner.Enumerate(true, 4) {
		if _, err := env.Execute(p, q, 10, catLt(50), Options{Ef: 64, Ctx: context.Background()}); err != nil {
			t.Fatalf("%v: %v", p.Kind, err)
		}
	}
	if _, n := env.Stats.MeanProbeComps(); n == 0 {
		t.Fatal("completed ANN probes were not recorded")
	}
}

// passingCtx is a query's context on a CPU too busy to run its timer:
// its deadline passes while the search runs, yet Done never closes and
// Err stays nil. Done, which a search calls as it starts a traversal,
// a scan part or an allowlist build, sleeps until the deadline has
// passed, so the search itself starts in time and ends late.
type passingCtx struct {
	context.Context
	end time.Time
}

func (c passingCtx) Deadline() (time.Time, bool) { return c.end, true }
func (c passingCtx) Err() error                  { return nil }
func (c passingCtx) Done() <-chan struct{} {
	time.Sleep(time.Until(c.end) + time.Millisecond)
	return nil
}

// TestSearchesStopAtTheirDeadline: the graph traversals and the
// allowlist build read the query's deadline off the clock, so a probe
// of each of the six graph families and an allowlist build whose
// deadline passes mid-way return context.DeadlineExceeded even though
// the context's timer has not run.
func TestSearchesStopAtTheirDeadline(t *testing.T) {
	ds := dataset.Clustered(3000, 16, 8, 0.4, 1)
	q := ds.Queries(1, 0.05, 2)[0]
	late := func() Options {
		return Options{Ef: 1000, Ctx: passingCtx{context.Background(), time.Now().Add(20 * time.Millisecond)}}
	}
	for _, name := range []string{"hnsw", "nsw", "nsg", "vamana", "fanng", "knng"} {
		idx, err := index.Build(name, ds.Data, ds.Count, ds.Dim, vec.L2, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		env := envOver(t, ds, idx)
		res, err := env.Execute(planner.Plan{Kind: planner.SingleStage}, q, 10, nil, late())
		if !errors.Is(err, context.DeadlineExceeded) || res != nil {
			t.Fatalf("%s past its deadline: %d hits, err %v; want context.DeadlineExceeded", name, len(res), err)
		}
		if _, err := env.Execute(planner.Plan{Kind: planner.SingleStage}, q, 10, nil, Options{Ef: 1000, Ctx: context.Background()}); err != nil {
			t.Fatalf("%s in time: %v", name, err)
		}
	}

	env, _ := buildEnv(t, 20000)
	cp, err := env.compile(catLt(50))
	if err != nil {
		t.Fatal(err)
	}
	params := late().params()
	if bm, err := env.matches(0, cp, &params); !errors.Is(err, context.DeadlineExceeded) || bm != nil {
		t.Fatalf("allowlist build past its deadline: err %v; want context.DeadlineExceeded", err)
	}
}
