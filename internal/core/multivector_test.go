package core

import (
	"testing"

	"vdbms/internal/filter"
)

// TestMultiVectorAdmitsLiveFilteredRows holds both multi-vector paths
// (the exact entity scan, and candidate generation on an hnsw index) to
// the admission rule of single-vector search: a deleted row or one
// failing the filters does not count toward its entity's score, and an
// entity with no admitted row is not returned.
func TestMultiVectorAdmitsLiveFilteredRows(t *testing.T) {
	// Rows on the x axis, the query at the origin (squared L2, so a row
	// at x scores x*x under min, exactly for these x): entity 1 has a
	// near row (ok 0) and a far one (ok 1), entity 4 only an ok 0 row,
	// entity 5 only a row the cases delete. Entities 100+ pad the graph.
	rows := []struct {
		x       float32
		ent, ok int64
	}{
		{0, 1, 0},
		{0.5, 2, 1},
		{3, 1, 1},
		{0.125, 4, 0},
		{0.25, 5, 1},
	}
	for i := 0; i < 40; i++ {
		rows = append(rows, struct {
			x       float32
			ent, ok int64
		}{float32(10 + i), int64(100 + i), 1})
	}
	okOnly := []Filter{{Column: "ok", Op: "=", Value: 1}}
	type hit struct {
		ent  int64
		dist float32
	}
	cases := []struct {
		name    string
		deleted []int64
		filters []Filter
		want    []hit
	}{
		{"deleted", []int64{0, 4}, nil, []hit{{4, 0.015625}, {2, 0.25}, {1, 9}}},
		{"filtered", nil, okOnly, []hit{{5, 0.0625}, {2, 0.25}, {1, 9}}},
		{"deleted_and_filtered", []int64{0, 4}, okOnly, []hit{{2, 0.25}, {1, 9}, {100, 100}}},
	}
	for _, index := range []string{"exact", "hnsw"} {
		for _, tc := range cases {
			t.Run(index+"/"+tc.name, func(t *testing.T) {
				c, err := NewCollection("mv", Schema{Dim: 2, Attributes: map[string]filter.Kind{
					"ent": filter.Int64, "ok": filter.Int64,
				}})
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rows {
					attrs := map[string]filter.Value{"ent": filter.IntV(r.ent), "ok": filter.IntV(r.ok)}
					if _, err := c.Insert([]float32{r.x, 0}, attrs); err != nil {
						t.Fatal(err)
					}
				}
				if index != "exact" {
					if err := c.CreateIndex(index, nil); err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range tc.deleted {
					if err := c.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				c.WaitForIndex()
				if served := c.snap.Load().env.ANN != nil; served != (index != "exact") {
					t.Fatalf("index served = %v on the %s path", served, index)
				}
				res, err := c.Search(bg, SearchRequest{
					Vectors: [][]float32{{0, 0}}, K: len(tc.want), EntityColumn: "ent", Aggregator: "min", Filters: tc.filters,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Hits) != len(tc.want) {
					t.Fatalf("hits %v, want %v", res.Hits, tc.want)
				}
				for i, h := range res.Hits {
					if h.ID != tc.want[i].ent || h.Dist != tc.want[i].dist {
						t.Fatalf("hit %d = entity %d at %v, want entity %d at %v (all: %v)",
							i, h.ID, h.Dist, tc.want[i].ent, tc.want[i].dist, res.Hits)
					}
				}
			})
		}
	}
}
