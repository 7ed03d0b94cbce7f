package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vdbms/internal/filter"
)

func TestSaveLoadRoundTripCore(t *testing.T) {
	c, ds := newCol(t, 120)
	if err := c.CreateIndex("ivfflat", map[string]int{"nlist": 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(3); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.snap")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	re, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 119 || re.Rows() != 120 || re.Name() != "t" {
		t.Fatalf("restored: live=%d rows=%d", re.Len(), re.Rows())
	}
	kind, covered, _ := re.IndexInfo()
	if kind != "ivfflat" || covered != 120 {
		t.Fatalf("index: %s %d", kind, covered)
	}
	kinds := re.AttributeKinds()
	if kinds["g"] != filter.Int64 {
		t.Fatalf("attr kinds: %v", kinds)
	}
	// Same search results pre/post.
	q := ds.Row(10)
	before, err := c.Search(bg, SearchRequest{Vector: q, K: 5, NProbe: 4, Ef: 64})
	if err != nil {
		t.Fatal(err)
	}
	after, err := re.Search(bg, SearchRequest{Vector: q, K: 5, NProbe: 4, Ef: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Hits) != len(after.Hits) {
		t.Fatalf("result sizes differ: %d vs %d", len(before.Hits), len(after.Hits))
	}
	for i := range before.Hits {
		if before.Hits[i].ID != after.Hits[i].ID {
			t.Fatalf("result %d differs: %v vs %v", i, before.Hits[i], after.Hits[i])
		}
	}
}

// loadBad writes snap as a v3 file and loads it back, returning the
// load error.
func loadBad(t *testing.T, snap fileSnapshot) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.snap")
	column := snap.Data
	snap.Data = nil // the column travels in its own section
	if err := writeSnapshotFile(path, &snap, column, func() {}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	return err
}

func TestLoadVersionMismatch(t *testing.T) {
	err := loadBad(t, fileSnapshot{FormatVersion: 99, Name: "x", Dim: 2, N: 1, Data: []float32{1, 2}})
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("want version error, got %v", err)
	}
}

// A file without the v3 magic — such as a bare-gob v1/v2 container —
// is refused with an error that says so, on both read paths.
func TestLoadRefusesPreV3Container(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&fileSnapshot{FormatVersion: 2, Name: "x", Dim: 2, N: 1, Data: []float32{1, 2}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v2.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "not a v3 snapshot") {
		t.Fatalf("Load: want not-v3 error, got %v", err)
	}
	if _, _, err := openSnapshotFile(path); err == nil || !strings.Contains(err.Error(), "not a v3 snapshot") {
		t.Fatalf("openSnapshotFile: want not-v3 error, got %v", err)
	}
}

func TestLoadCorruptTombstone(t *testing.T) {
	err := loadBad(t, fileSnapshot{
		FormatVersion: snapshotVersion,
		Name:          "x",
		Dim:           2,
		N:             1,
		Data:          []float32{1, 2},
		Deleted:       []int64{7}, // out of range
		AttrKinds:     map[string]int32{},
	})
	if err == nil || !strings.Contains(err.Error(), "tombstone") {
		t.Fatalf("want tombstone error, got %v", err)
	}
}

// TestLoadUncompactedV3Snapshot: a v3 file as written before ids were
// separated from rows — no IDs, no NextID — loads with every id its
// row. testdata/uncompacted-v3.snap holds 20 rows of dim 4 (row i is
// rowVec(i), attribute g = 3i), ids 3 and 7 deleted, and an hnsw
// recipe. Each live id gets its vector before and after a Compact, and
// the next insert gets id 20.
func TestLoadUncompactedV3Snapshot(t *testing.T) {
	rowVec := func(i int) []float32 { return []float32{float32(i), float32(i * i % 7), -float32(i), 0.5} }
	c, err := Load(filepath.Join("testdata", "uncompacted-v3.snap"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if c.Rows() != 20 || c.Len() != 18 {
			t.Fatalf("%s: rows=%d live=%d, want 20 and 18", when, c.Rows(), c.Len())
		}
		for i := 0; i < 20; i++ {
			v, a, err := c.Get(int64(i))
			if i == 3 || i == 7 {
				if err == nil {
					t.Fatalf("%s: deleted id %d answers Get", when, i)
				}
				continue
			}
			if err != nil || !slices.Equal(v, rowVec(i)) || a["g"].I != int64(3*i) {
				t.Fatalf("%s: id %d = %v %v %v, want %v g=%d", when, i, v, a, err, rowVec(i), 3*i)
			}
		}
	}
	check("loaded")
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	c.WaitForIndex()
	check("compacted")
	if kind, covered, _ := c.IndexInfo(); kind != "hnsw" || covered != 18 {
		t.Fatalf("compacted: index %q covers %d rows, want hnsw over 18", kind, covered)
	}
	if id, err := c.Insert(rowVec(20), map[string]filter.Value{"g": filter.IntV(60)}); err != nil || id != 20 {
		t.Fatalf("insert after compact: id %d, %v; want 20", id, err)
	}
}

// TestLoadCorruptColumnRows: testdata/uncompacted-v3.snap with its
// column header's row count set past what the file holds — 2^50 rows,
// and 2^62, whose byte size overflows int64 — is refused with an error
// on both read paths, the heap reader Load takes and the mapping
// Recover takes, before anything is sized by the count.
func TestLoadCorruptColumnRows(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "uncompacted-v3.snap"))
	if err != nil {
		t.Fatal(err)
	}
	columnOff := binary.LittleEndian.Uint64(img[8:])
	for _, rows := range []uint64{1 << 50, 1 << 62} {
		bad := slices.Clone(img)
		binary.LittleEndian.PutUint64(bad[columnOff+16:], rows)
		path := filepath.Join(t.TempDir(), "rows.snap")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("Load with %d rows: want truncated error, got %v", rows, err)
		}
		if _, m, err := openSnapshotFile(path); err == nil || !strings.Contains(err.Error(), "truncated") {
			if m != nil {
				m.Close()
			}
			t.Fatalf("openSnapshotFile with %d rows: want truncated error, got %v", rows, err)
		}
	}
}

func TestLoadCorruptIDs(t *testing.T) {
	err := loadBad(t, fileSnapshot{
		FormatVersion: snapshotVersion,
		Name:          "x",
		Dim:           1,
		N:             2,
		Data:          []float32{1, 2},
		IDs:           []int64{4, 2}, // not ascending
		NextID:        5,
		AttrKinds:     map[string]int32{},
	})
	if err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("want ids error, got %v", err)
	}
}

func TestLoadBadIndexKind(t *testing.T) {
	err := loadBad(t, fileSnapshot{
		FormatVersion: snapshotVersion,
		Name:          "x",
		Dim:           2,
		N:             1,
		Data:          []float32{1, 2},
		AttrKinds:     map[string]int32{},
		IndexKind:     "bogus",
	})
	if err == nil || !strings.Contains(err.Error(), "unknown index") {
		t.Fatalf("want index-kind error, got %v", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("want open error")
	}
}

func TestSaveToUnwritablePath(t *testing.T) {
	c, _ := newCol(t, 5)
	if err := c.Save(filepath.Join(t.TempDir(), "no", "such", "dir", "f")); err == nil {
		t.Fatal("want create error")
	}
}
