package core

import (
	"os"
	"path/filepath"
	"testing"

	"vdbms/internal/filter"
	"vdbms/internal/wal"
)

// FuzzWALRecord feeds arbitrary bytes to the WAL record decoder. A
// payload must fail to decode or decode to a record that replay can
// take: a schema record creates a collection or is refused, any other
// record applies to a fresh two-row collection or is refused — an
// error, never a panic, and no allocation sized by a count the payload
// does not back with bytes.
func FuzzWALRecord(f *testing.F) {
	schema := durableSchema()
	v := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	for _, seed := range [][]byte{
		encodeSchema("t", schema),
		encodeInsert(v, durableRowAttrs(3), schema.Attributes),
		encodeUpdate(1, v),
		encodeDelete(0),
		encodeCreateIndex("hnsw", map[string]int{"m": 8, "efc": 64}),
		encodeDropIndex(),
		{opInsert, 0xff, 0xff, 0xff, 0xff},
		{opSchema, 0, 0, 0, 0, 8, 0, 0, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return
		}
		if rec.op == opSchema {
			if c, err := NewCollection(rec.name, rec.schema); err == nil {
				c.Close()
			}
			return
		}
		c, err := NewCollection("t", schema)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 2; i++ {
			if _, err := c.Insert(v, durableRowAttrs(i)); err != nil {
				t.Fatal(err)
			}
		}
		c.replaying = true
		c.applyWALRecord(rec) //nolint:errcheck // refusing the record is a valid outcome
	})
}

// FuzzSnapshotFile feeds arbitrary bytes to both snapshot readers: as a
// Save file to Load, and as a checkpoint to Recover. Each must refuse
// the file with an error or restore a collection that answers a search
// — never panic, and never size an allocation by an unchecked count.
// The seeds are testdata/uncompacted-v3.snap and a fresh Save.
func FuzzSnapshotFile(f *testing.F) {
	old, err := os.ReadFile(filepath.Join("testdata", "uncompacted-v3.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	c, err := NewCollection("s", Schema{Dim: 4, Attributes: map[string]filter.Kind{"g": filter.Int64}})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := c.Insert([]float32{float32(i), 1, -float32(i), 0.5}, map[string]filter.Value{"g": filter.IntV(int64(i))}); err != nil {
			f.Fatal(err)
		}
	}
	if err := c.Delete(2); err != nil {
		f.Fatal(err)
	}
	if err := c.CreateIndex("ivfflat", map[string]int{"nlist": 2}); err != nil {
		f.Fatal(err)
	}
	saved := filepath.Join(f.TempDir(), "fresh.snap")
	if err := c.Save(saved); err != nil {
		f.Fatal(err)
	}
	c.Close()
	fresh, err := os.ReadFile(saved)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fresh)
	// One directory per worker, emptied per input: a fresh t.TempDir
	// per input would cost more than the input.
	dir := filepath.Join(f.TempDir(), "db")
	f.Fuzz(func(t *testing.T, img []byte) {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, checkpointName(0))
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		answers := func(c *Collection) {
			if c.Len() == 0 {
				return
			}
			if _, err := c.Search(bg, SearchRequest{Vector: make([]float32, c.Dim()), K: 3}); err != nil {
				t.Fatalf("restored collection cannot search: %v", err)
			}
		}
		if c, err := Load(path); err == nil {
			answers(c)
			c.Close()
		}
		if c, err := Recover(dir, DurabilityOptions{Fsync: wal.SyncNever}); err == nil {
			answers(c)
			// Crash rather than Close: the final checkpoint's fsyncs
			// would dominate the input.
			c.wal.log.Close()
			c.closeMaps()
		}
	})
}
