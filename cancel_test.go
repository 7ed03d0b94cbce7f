package vdbms

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"vdbms/internal/dataset"
)

// TestSearchContextLeavesNoGoroutines: SearchContext runs on the
// caller's goroutine and stops a search whose context ends, so neither
// 10 000 ordinary searches nor a burst of searches timed out half-way
// through a 200 000-row scan leave a goroutine behind. (A search that
// ran on its own goroutine and was abandoned at the deadline kept
// scanning, one goroutine per timed-out query.)
func TestSearchContextLeavesNoGoroutines(t *testing.T) {
	const n, dim = 200_000, 8
	db := New()
	col, err := db.CreateCollection("scan", Schema{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Uniform(n, dim, 9)
	for i := 0; i < n; i++ {
		if _, err := col.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	small, err := db.CreateCollection("small", Schema{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := small.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	settled := func(baseline int) bool {
		for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if runtime.NumGoroutine() <= baseline {
				return true
			}
		}
		return false
	}

	baseline := runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := small.SearchContext(ctx, SearchRequest{Vector: ds.Row(i % 500), K: 5})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !settled(baseline) {
		t.Fatalf("%d goroutines after 10 000 searches, %d before", runtime.NumGoroutine(), baseline)
	}

	timedOut := 0
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Microsecond)
		_, err := col.SearchContext(ctx, SearchRequest{Vector: ds.Row(i), K: 10, Policy: "plan:brute_force"})
		cancel()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			timedOut++
		case err != nil:
			t.Fatal(err)
		}
	}
	if timedOut < 100 {
		t.Fatalf("only %d of 200 scans outran a 100µs deadline", timedOut)
	}
	// Checked at once: a stopped scan has ended, pool workers included,
	// by the time SearchContext returns; an abandoned one is still
	// running.
	if n := scanning(); n > 0 {
		t.Fatalf("%d goroutines still inside a scan right after %d timed-out searches returned: abandoned, not stopped", n, timedOut)
	}
	// The deadline timers' own goroutines take a moment to exit.
	if !settled(baseline) {
		t.Fatalf("%d goroutines after %d timed-out scans, %d before", runtime.NumGoroutine(), timedOut, baseline)
	}
}

// scanning counts the goroutines whose stack is inside a flat scan.
func scanning() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "vdbms/internal/index.(*Scan).rows") {
			n++
		}
	}
	return n
}

// TestInsertChecksAttributeTypes: inserted values are held to the column
// types with the lossless rule filter operands follow — a number
// converts when nothing is lost, anything else is ErrAttrType — and a
// refused row is not stored.
func TestInsertChecksAttributeTypes(t *testing.T) {
	db := New()
	col, err := db.CreateCollection("typed", Schema{Dim: 2, Attributes: map[string]string{
		"cat": "int", "score": "float", "name": "string",
	}})
	if err != nil {
		t.Fatal(err)
	}
	v := []float32{1, 2}
	// row is a valid row with one value replaced.
	row := func(col string, val any) map[string]any {
		r := map[string]any{"cat": 1, "score": 1.0, "name": "x"}
		r[col] = val
		return r
	}
	stored := []struct {
		col       string
		val, want any
	}{
		{"cat", 7.0, int64(7)}, // the number every JSON decoder yields
		{"cat", float32(-3), int64(-3)},
		{"cat", 7, int64(7)},
		{"cat", int64(1) << 62, int64(1) << 62},
		{"score", 3, 3.0},
		{"score", int64(1) << 53, float64(1 << 53)},
		{"score", 2.5, 2.5},
		{"name", "seven", "seven"},
	}
	for _, c := range stored {
		id, err := col.Insert(v, row(c.col, c.val))
		if err != nil {
			t.Fatalf("%s = %v: %v", c.col, c.val, err)
		}
		_, got, err := col.Get(id)
		if err != nil || got[c.col] != c.want {
			t.Fatalf("%s = %v: stored %v (%T), err %v; want %v", c.col, c.val, got[c.col], got[c.col], err, c.want)
		}
	}
	rows := col.Len()
	for _, bad := range []struct {
		col string
		val any
	}{
		{"cat", 2.5},
		{"cat", "seven"},
		{"cat", nil},
		{"cat", true},
		{"cat", 1e19},
		{"score", "high"},
		{"score", int64(1)<<53 + 1},
		{"name", 7.0},
	} {
		if _, err := col.Insert(v, row(bad.col, bad.val)); !errors.Is(err, ErrAttrType) {
			t.Fatalf("%s = %v: error %v, want ErrAttrType", bad.col, bad.val, err)
		}
	}
	if _, err := col.Insert(v, row("nope", 1)); err == nil || errors.Is(err, ErrAttrType) {
		t.Fatalf("unknown column: error %v, want the engine's", err)
	}
	if col.Len() != rows {
		t.Fatalf("refused inserts stored rows: %d, want %d", col.Len(), rows)
	}
}
