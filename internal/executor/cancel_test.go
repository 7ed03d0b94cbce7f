package executor

import (
	"context"
	"errors"
	"testing"

	"vdbms/internal/planner"
	"vdbms/internal/stats"
	"vdbms/internal/topk"
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
