package core

import (
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
)

// quantizedAnn reports whether the installed index scans codes.
func quantizedAnn(c *Collection) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	qi, ok := c.ann.(index.Quantized)
	return ok && qi.QuantizedScan()
}

// TestQuantizedRecipeSurvivesRecovery: a schema-level quantization
// default is materialized into the index opts at CreateIndex, logged
// in the WAL index record, and must come back as a quantized index
// after crash recovery — from the log alone and from a checkpoint.
func TestQuantizedRecipeSurvivesRecovery(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		dir := t.TempDir()
		schema := Schema{Dim: 8, Quantization: "sq8", RerankK: 48}
		c, err := CreateDurable(dir, "t", schema, DurabilityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ds := dataset.Clustered(300, 8, 4, 0.4, 17)
		for i := 0; i < 300; i++ {
			if _, err := c.Insert(ds.Row(i), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.CreateIndex("hnsw", map[string]int{"m": 6}); err != nil {
			t.Fatal(err)
		}
		if !quantizedAnn(c) {
			t.Fatal("schema default did not produce a quantized index")
		}
		if checkpoint {
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		c.WaitForIndex()
		// Crash, not Close: recovery rebuilds from the recorded recipe.
		if err := c.wal.log.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Recover(dir, DurabilityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		re.WaitForIndex()
		if re.schema.Quantization != "sq8" || re.schema.RerankK != 48 {
			t.Fatalf("checkpoint=%v: schema came back as %q/%d", checkpoint, re.schema.Quantization, re.schema.RerankK)
		}
		if kind, covered, _ := re.IndexInfo(); kind != "hnsw" || covered != 300 {
			t.Fatalf("checkpoint=%v: index %q covering %d", checkpoint, kind, covered)
		}
		if !quantizedAnn(re) {
			t.Fatalf("checkpoint=%v: recovered index lost its quantized scan", checkpoint)
		}
		// The recovered collection answers queries with exact re-ranked
		// distances, same as the original.
		q := ds.Row(3)
		wr, err := c.Search(bg, SearchRequest{Vector: q, K: 5, Ef: 64})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := re.Search(bg, SearchRequest{Vector: q, K: 5, Ef: 64})
		if err != nil {
			t.Fatal(err)
		}
		want, got := wr.Hits, gr.Hits
		if len(want) != len(got) {
			t.Fatalf("checkpoint=%v: %d vs %d hits", checkpoint, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("checkpoint=%v hit %d: %+v vs %+v", checkpoint, i, want[i], got[i])
			}
		}
		re.Close()
	}
}
