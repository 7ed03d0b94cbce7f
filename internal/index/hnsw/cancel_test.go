package hnsw

import (
	"context"
	"errors"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/vec"
)

// TestSearchStopsWithinAnExpansion cancels an HNSW probe from inside its
// beam: the beam polls once per popped node, so a cancel during the
// entry's admission stops it before its first expansion and one during
// the first expansion stops it before the second. SearchStats comps are
// the witness: the two differ by one expansion, at most the base
// layer's 2M neighbours.
func TestSearchStopsWithinAnExpansion(t *testing.T) {
	const m = 8
	ds := dataset.Clustered(5000, 8, 10, 0.3, 3)
	h, err := Build(ds.Data, ds.Count, ds.Dim, Config{M: m, Metric: vec.L2})
	if err != nil {
		t.Fatal(err)
	}
	// cancelAt is the Filter call that cancels (0: none). Every scored
	// node the beam keeps is offered to the Filter; the entry point is
	// call 1, the first expansion's nodes come next.
	search := func(cancelAt int) (index.SearchStats, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		calls := 0
		var st index.SearchStats
		_, err := h.Search(ds.Row(17), 10, index.Params{Ef: 256, Ctx: ctx, Stats: &st, Filter: func(int64) bool {
			if calls++; calls == cancelAt {
				cancel()
			}
			return true
		}})
		return st, err
	}
	full, err := search(0)
	if err != nil {
		t.Fatal(err)
	}
	atEntry, err := search(1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled at the entry: err %v", err)
	}
	inFirst, err := search(2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled in the first expansion: err %v", err)
	}
	if d := inFirst.DistanceComps - atEntry.DistanceComps; d <= 0 || d > 2*m {
		t.Fatalf("the first expansion scored %d nodes (%d -> %d comps), want 1..%d",
			d, atEntry.DistanceComps, inFirst.DistanceComps, 2*m)
	}
	if inFirst.DistanceComps*4 > full.DistanceComps {
		t.Fatalf("cancelled probe scored %d nodes, the full one %d", inFirst.DistanceComps, full.DistanceComps)
	}
}
