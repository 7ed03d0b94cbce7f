package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vdbms/internal/dataset"
	"vdbms/internal/fault"
	"vdbms/internal/filter"
	"vdbms/internal/obs"
	"vdbms/internal/vec"
	"vdbms/internal/wal"
)

func durableSchema() Schema {
	return Schema{
		Dim:    8,
		Metric: vec.L2,
		Attributes: map[string]filter.Kind{
			"g": filter.Int64,
			"w": filter.Float64,
			"s": filter.String,
		},
	}
}

func durableRowAttrs(i int) map[string]filter.Value {
	return map[string]filter.Value{
		"g": filter.IntV(int64(i % 10)),
		"w": filter.FloatV(float64(i) / 3),
		"s": filter.StringV(fmt.Sprintf("s%d", i%7)),
	}
}

func newDurable(t *testing.T, dir string, n int, opts DurabilityOptions) (*Collection, *dataset.Dataset) {
	t.Helper()
	c, err := CreateDurable(dir, "t", durableSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(n, 8, 4, 0.4, 1)
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), durableRowAttrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	return c, ds
}

// requireSameAnswers compares the two collections row by row and
// query by query (exact scan, so index build nondeterminism cannot
// hide divergence).
func requireSameAnswers(t *testing.T, want, got *Collection, ds *dataset.Dataset, queries int) {
	t.Helper()
	if want.Rows() != got.Rows() || want.Len() != got.Len() {
		t.Fatalf("shape: want rows=%d live=%d, got rows=%d live=%d",
			want.Rows(), want.Len(), got.Rows(), got.Len())
	}
	for id := 0; id < want.Rows(); id++ {
		wv, wa, werr := want.Get(int64(id))
		gv, ga, gerr := got.Get(int64(id))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("row %d: liveness differs: %v vs %v", id, werr, gerr)
		}
		if werr != nil {
			continue
		}
		for j := range wv {
			if wv[j] != gv[j] {
				t.Fatalf("row %d float %d: %v vs %v", id, j, wv[j], gv[j])
			}
		}
		for k, v := range wa {
			if ga[k] != v {
				t.Fatalf("row %d attr %q: %+v vs %+v", id, k, v, ga[k])
			}
		}
	}
	for qi := 0; qi < queries; qi++ {
		q := ds.Row(qi * 7 % ds.Count)
		wr, err := want.Search(bg, SearchRequest{Vector: q, K: 10, Policy: "plan:brute_force"})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := got.Search(bg, SearchRequest{Vector: q, K: 10, Policy: "plan:brute_force"})
		if err != nil {
			t.Fatal(err)
		}
		w, g := wr.Hits, gr.Hits
		if len(w) != len(g) {
			t.Fatalf("query %d: %d vs %d hits", qi, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("query %d hit %d: %+v vs %+v", qi, i, w[i], g[i])
			}
		}
	}
}

func TestDurableCloseRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, ds := newDurable(t, dir, 120, DurabilityOptions{})
	if err := c.CreateIndex("ivfflat", map[string]int{"nlist": 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateVector(5, make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Recover(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireSameAnswers(t, c, re, ds, 8)
	kind, covered, _ := re.IndexInfo()
	if kind != "ivfflat" || covered != re.Rows() {
		t.Fatalf("index after recovery: %s covering %d of %d", kind, covered, re.Rows())
	}
	// Clean shutdown wrote a final checkpoint: reopening replayed nothing.
	durable, lastLSN, ckptLSN := re.DurabilityStatus()
	if !durable || ckptLSN != lastLSN {
		t.Fatalf("status after clean recovery: durable=%v last=%d ckpt=%d", durable, lastLSN, ckptLSN)
	}
	// And the recovered collection accepts new durable writes.
	if _, err := re.Insert(ds.Row(0), durableRowAttrs(0)); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverFromLogOnly(t *testing.T) {
	dir := t.TempDir()
	c, ds := newDurable(t, dir, 60, DurabilityOptions{})
	if err := c.Delete(7); err != nil {
		t.Fatal(err)
	}
	// Crash without Close: no checkpoint exists, recovery replays the
	// whole log starting from the schema birth record.
	if err := c.wal.log.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Recover(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireSameAnswers(t, c, re, ds, 5)
	if re.Name() != "t" {
		t.Fatalf("name from birth record: %q", re.Name())
	}
	if re.Len() != 59 {
		t.Fatalf("live rows %d, want 59", re.Len())
	}
}

func TestCheckpointRetiresWAL(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so the log rotates constantly.
	c, ds := newDurable(t, dir, 150, DurabilityOptions{SegmentBytes: 512})
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var nSeg, nCkpt int
	for _, e := range segs {
		if strings.HasSuffix(e.Name(), ".log") {
			nSeg++
		}
		if strings.HasSuffix(e.Name(), ".ckpt") {
			nCkpt++
		}
	}
	// Everything the checkpoint covers is gone; only the fresh active
	// segment (and possibly one sealed successor) remains.
	if nSeg > 2 || nCkpt != 1 {
		t.Fatalf("after checkpoint: %d segments, %d checkpoints", nSeg, nCkpt)
	}
	// A second checkpoint with no new writes is a clean skip.
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More writes, another checkpoint: the old checkpoint is replaced.
	for i := 0; i < 20; i++ {
		if _, err := c.Insert(ds.Row(i), durableRowAttrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re, err := Recover(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireSameAnswers(t, c, re, ds, 5)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	c, err := CreateDurable(dir, "t", durableSchema(), DurabilityOptions{
		// SyncNever + TornWriter models power loss: acknowledgments lie,
		// the tail of the log evaporates.
		Fsync:      wal.SyncNever,
		WrapWriter: func(w io.Writer) io.Writer { return fault.NewTornWriter(w, 4096, 7) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Clustered(100, 8, 4, 0.4, 1)
	for i := 0; i < 100; i++ {
		if _, err := c.Insert(ds.Row(i), durableRowAttrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.wal.log.Close() // abandon without checkpoint

	re, err := Recover(dir, DurabilityOptions{})
	if err != nil {
		t.Fatalf("torn tail must recover cleanly: %v", err)
	}
	defer re.Close()
	n := re.Rows()
	if n == 0 || n >= 100 {
		t.Fatalf("want a proper prefix of 100 rows, got %d", n)
	}
	// The surviving prefix is exact: row i is row i of the original.
	for i := 0; i < n; i++ {
		v, attrs, err := re.Get(int64(i))
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		for j := range v {
			if v[j] != ds.Row(i)[j] {
				t.Fatalf("row %d float %d differs after torn recovery", i, j)
			}
		}
		if attrs["g"].I != int64(i%10) {
			t.Fatalf("row %d attrs differ", i)
		}
	}
}

func TestRecoverCorruptionMidLogFails(t *testing.T) {
	dir := t.TempDir()
	c, _ := newDurable(t, dir, 80, DurabilityOptions{SegmentBytes: 512})
	c.wal.log.Close()
	// Damage a payload byte in the FIRST segment — not the tail.
	ents, _ := os.ReadDir(dir)
	var first string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".log") {
			first = filepath.Join(dir, e.Name())
			break // ReadDir sorts; wal names sort by LSN
		}
	}
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir, DurabilityOptions{}); err == nil {
		t.Fatal("mid-log corruption must fail recovery, not silently drop records")
	}
}

func TestCreateDurableRefusesPopulatedDir(t *testing.T) {
	dir := t.TempDir()
	c, _ := newDurable(t, dir, 5, DurabilityOptions{})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateDurable(dir, "t2", durableSchema(), DurabilityOptions{}); err == nil {
		t.Fatal("want already-holds-a-collection error")
	}
}

func TestRecoverEmptyDirFails(t *testing.T) {
	if _, err := Recover(t.TempDir(), DurabilityOptions{}); err == nil {
		t.Fatal("want nothing-to-recover error")
	}
}

func TestDropIndexSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	c, _ := newDurable(t, dir, 40, DurabilityOptions{})
	if err := c.CreateIndex("ivfflat", map[string]int{"nlist": 2}); err != nil {
		t.Fatal(err)
	}
	c.DropIndex()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Recover(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if kind, _, _ := re.IndexInfo(); kind != "" {
		t.Fatalf("dropped index resurrected as %q", kind)
	}
}

func TestCloseIsIdempotentAndFinal(t *testing.T) {
	dir := t.TempDir()
	c, ds := newDurable(t, dir, 10, DurabilityOptions{})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(ds.Row(0), durableRowAttrs(0)); err == nil {
		t.Fatal("want error inserting into a closed collection")
	}
}

func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	c, ds := newDurable(t, dir, 30, DurabilityOptions{CheckpointInterval: 20 * time.Millisecond})
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, lastLSN, ckptLSN := c.DurabilityStatus()
		if ckptLSN >= lastLSN && ckptLSN > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never caught up: last=%d ckpt=%d", lastLSN, ckptLSN)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Writes keep flowing while checkpoints run.
	for i := 0; i < 30; i++ {
		if _, err := c.Insert(ds.Row(i), durableRowAttrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Recover(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireSameAnswers(t, c, re, ds, 3)
}

func TestSaveIsDurableAndAtomic(t *testing.T) {
	// Satellite regression: Save must survive its parent-dir rename and
	// leave no temp file behind.
	c, _ := newCol(t, 20)
	dir := t.TempDir()
	path := filepath.Join(dir, "c.snap")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place (the rename path over an existing file).
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "c.snap" {
		t.Fatalf("stray files after Save: %v", ents)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
}

func TestSaveDoesNotBlockWriters(t *testing.T) {
	// Satellite regression: Save reads a pinned snapshot; a concurrent
	// writer must make progress while Save runs (serialization off the
	// epoch snapshot takes no collection lock at all).
	c, ds := newCol(t, 500)
	done := make(chan error, 1)
	go func() {
		done <- c.Save(filepath.Join(t.TempDir(), "bg.snap"))
	}()
	for i := 0; i < 50; i++ {
		if _, err := c.Insert(ds.Row(i%ds.Count), map[string]filter.Value{"g": filter.IntV(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestRecoverTwiceAfterTearBelowCheckpoint(t *testing.T) {
	// Review regression: a checkpoint can cover LSNs whose WAL frames
	// never reached disk (rows are applied and published before their
	// group commit fsyncs, and the checkpointer pins the published
	// snapshot). If a crash then tears the log below the checkpoint
	// LSN, the first recovery truncates the tear and reopens the log at
	// the checkpoint LSN — and every later recovery must tolerate the
	// resulting inter-segment gap instead of failing forever with
	// "missing records mid-log".
	dir := t.TempDir()
	c, ds := newDurable(t, dir, 40, DurabilityOptions{})
	// Hand-write a checkpoint at the current LSN without rotating or
	// retiring the log: exactly the on-disk state a pinned-snapshot
	// checkpoint leaves while the tail frames it covers are still in
	// the page cache.
	c.beginRead()
	s := c.snap.Load()
	if err := c.writeSnapshot(filepath.Join(dir, checkpointName(s.lsn)), s); err != nil {
		t.Fatal(err)
	}
	c.wal.log.Close()
	// Power loss: the segment loses its final frame, so the log now
	// ends below the checkpoint LSN.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".log") {
			seg = filepath.Join(dir, e.Name())
		}
	}
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-1); err != nil {
		t.Fatal(err)
	}

	re, err := Recover(dir, DurabilityOptions{})
	if err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	requireSameAnswers(t, c, re, ds, 5)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	re2, err := Recover(dir, DurabilityOptions{})
	if err != nil {
		t.Fatalf("second recovery after covered tear: %v", err)
	}
	defer re2.Close()
	requireSameAnswers(t, c, re2, ds, 5)
	// The twice-recovered collection still takes durable writes.
	if _, err := re2.Insert(ds.Row(0), durableRowAttrs(0)); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRefusedRecipeUnindexed: a recorded index recipe that the
// family's option table refuses — logged before the table bounded it —
// brings the collection back unindexed, serving exact scans, with the
// refusal counted as a failed build, from the log alone and from a
// checkpoint. A recipe that fails for any other reason still fails
// Recover.
func TestRecoverRefusedRecipeUnindexed(t *testing.T) {
	const n = 200
	ds := dataset.Clustered(n, 8, 4, 0.3, 11)
	write := func(t *testing.T, checkpoint bool, kind string, opts map[string]int) string {
		dir := t.TempDir()
		c, err := CreateDurable(dir, "t", Schema{Dim: 8}, DurabilityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := c.Insert(ds.Row(i), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.CreateIndex("hnsw", map[string]int{"m": 8}); err != nil {
			t.Fatal(err)
		}
		c.WaitForIndex()
		c.mu.Lock()
		commit, err := c.logLocked(func() []byte { return encodeCreateIndex(kind, opts) })
		c.annKind, c.annOpts = kind, opts
		c.publishLocked()
		c.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if err := commit.Wait(); err != nil {
			t.Fatal(err)
		}
		if checkpoint {
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		// Crash, not Close: recovery rebuilds from the recorded recipe.
		if err := c.wal.log.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	// An out-of-range value, and keys that a family declared before its
	// table narrowed to the keys its build reads.
	for _, recipe := range []struct {
		kind string
		opts map[string]int
	}{{"hnsw", map[string]int{"m": -5}}, {"kdtree", map[string]int{"trees": 2}}, {"nsg", map[string]int{"alpha100": 120}}, {"nsw", map[string]int{"seed": 3}}} {
		for _, checkpoint := range []bool{false, true} {
			failed := obs.IndexBuildsTotal.With("failed").Value()
			re, err := Recover(write(t, checkpoint, recipe.kind, recipe.opts), DurabilityOptions{})
			if err != nil {
				t.Fatalf("%s checkpoint=%v: %v", recipe.kind, checkpoint, err)
			}
			if kind, covered, _ := re.IndexInfo(); kind != "" || covered != 0 {
				t.Fatalf("%s checkpoint=%v: recovered with index %q covering %d, want none", recipe.kind, checkpoint, kind, covered)
			}
			if got := obs.IndexBuildsTotal.With("failed").Value() - failed; got < 1 {
				t.Fatalf("%s checkpoint=%v: %d failed builds counted, want the refusal", recipe.kind, checkpoint, got)
			}
			res, err := re.Search(bg, SearchRequest{Vector: ds.Row(7), K: 5})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Hits) != 5 || res.Hits[0].ID != 7 || res.Hits[0].Dist != 0 {
				t.Fatalf("%s checkpoint=%v: exact scan answered %v", recipe.kind, checkpoint, res.Hits)
			}
			re.Close()
		}
	}
	if _, err := Recover(write(t, false, "nope", nil), DurabilityOptions{}); err == nil {
		t.Fatal("recovered a recipe naming no registered index; want the build error")
	}
}
