package core

import (
	"slices"
	"testing"
	"time"
)

// TestDeleteCostScaling gates what one delete costs as the collection
// grows. A delete publishes a fresh copy-on-write deletion mask; built
// bit by bit from the old mask, that copy costs O(deleted rows), and
// deleting half of a collection cost 3.4-3.7x more per delete at 80 000
// rows than at 20 000. Copied word by word it costs O(n/64): about
// 1 µs more at 80 000 rows than at 20 000 on a 2-vCPU Xeon. The
// per-delete time of deleting every other row, the median of three
// runs, may grow at most 2x from 20 000 to 80 000 rows, on at least one
// of three attempts. A timing gate, so it runs without -race.
func TestDeleteCostScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	if raceEnabled {
		t.Skip("timing measurement; meaningless under -race")
	}
	const d = 16
	perDelete := func(n int) time.Duration {
		c, err := NewCollection("del", Schema{Dim: d})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		v := make([]float32, d)
		ids := make([]int64, n)
		for i := range ids {
			v[i%d] = float32(i)
			if ids[i], err = c.Insert(v, nil); err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		for i := 0; i < n; i += 2 {
			if err := c.Delete(ids[i]); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start) / time.Duration(n/2)
	}
	median := func(n int) time.Duration {
		runs := []time.Duration{perDelete(n), perDelete(n), perDelete(n)}
		slices.Sort(runs)
		return runs[1]
	}
	// A run of the 80 000-row side can land on a busy host; the gate
	// takes the best of three attempts, each a fresh pair of medians,
	// and fails only if every attempt exceeds 2x. O(deleted) cost reads
	// 3.4-3.7x on every attempt.
	var ratios []float64
	for attempt := 0; attempt < 3; attempt++ {
		small, large := median(20_000), median(80_000)
		t.Logf("per delete: %v at 20000 rows, %v at 80000 rows", small, large)
		if large <= 2*small {
			return
		}
		ratios = append(ratios, float64(large)/float64(small))
	}
	t.Fatalf("a delete at 80000 rows costs %.1fx one at 20000 on each of three attempts; want at most 2x", ratios)
}
