package filter

import (
	"math/rand"
	"testing"

	"vdbms/internal/bitset"
)

// BenchmarkCompiledPredicateScan is the per-row cost of the block
// evaluator: an int64 range predicate (lo <= x < hi, two terms) over
// 20 000 uniform rows into a reused bitmap, reported as ns/row. The
// interpreted evaluator this replaced measured 43 ns/row for one term.
func BenchmarkCompiledPredicateScan(b *testing.B) {
	const rows = 20000
	rng := rand.New(rand.NewSource(1))
	tbl := NewTable()
	if _, err := tbl.AddColumn("cat", Int64); err != nil {
		b.Fatal(err)
	}
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(rng.Intn(100))
	}
	if err := tbl.BulkRestore(rows, map[string][]int64{"cat": vals}, nil, nil); err != nil {
		b.Fatal(err)
	}
	c, err := tbl.Compile([]Predicate{
		{Column: "cat", Op: Ge, Value: IntV(25)},
		{Column: "cat", Op: Lt, Value: IntV(75)},
	})
	if err != nil {
		b.Fatal(err)
	}
	bm := bitset.New(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EvalRange(bm, 0, rows)
	}
	b.StopTimer()
	if got := bm.Count(); got == 0 || got == rows {
		b.Fatalf("range predicate admitted %d of %d rows", got, rows)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
}
