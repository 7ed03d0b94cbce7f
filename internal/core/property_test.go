package core

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"vdbms/internal/filter"
	"vdbms/internal/vec"
)

// Property test for the two persistence paths: whatever random history
// a collection lives through — any schema, any metric, inserts,
// updates, deletes, compactions, index recipes — Save→Load and
// checkpoint→Recover must both reproduce a collection that answers
// every query identically to the original.

type propState struct {
	rng    *rand.Rand
	dim    int
	schema Schema
	// noCompact skips the compactions the history draws (the draws
	// still happen, so a twin without them stays on the same history).
	noCompact bool
}

func randomSchema(rng *rand.Rand) (Schema, *propState) {
	metrics := []vec.Metric{vec.L2, vec.InnerProduct, vec.Cosine, vec.L1, vec.Linf, vec.Hamming}
	kinds := []filter.Kind{filter.Int64, filter.Float64, filter.String}
	dim := 2 + rng.Intn(14)
	attrs := map[string]filter.Kind{}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		attrs[fmt.Sprintf("col%d", i)] = kinds[rng.Intn(len(kinds))]
	}
	s := Schema{
		Dim:        dim,
		Metric:     metrics[rng.Intn(len(metrics))],
		Attributes: attrs,
	}
	return s, &propState{rng: rng, dim: dim, schema: s}
}

func (p *propState) vector() []float32 {
	v := make([]float32, p.dim)
	for j := range v {
		v[j] = p.rng.Float32()*2 - 1
	}
	return v
}

// attrs draws one row's values, column by column in name order, so
// two states on one seed draw the same rows.
func (p *propState) attrs() map[string]filter.Value {
	out := map[string]filter.Value{}
	for _, name := range slices.Sorted(maps.Keys(p.schema.Attributes)) {
		switch p.schema.Attributes[name] {
		case filter.Int64:
			out[name] = filter.IntV(int64(p.rng.Intn(50)))
		case filter.Float64:
			out[name] = filter.FloatV(p.rng.Float64() * 10)
		default:
			out[name] = filter.StringV(fmt.Sprintf("v%d", p.rng.Intn(20)))
		}
	}
	return out
}

// mutate runs a random history against c, returning query vectors for
// the equivalence check. Updates and deletes draw ids over every id c
// has issued and skip the dead ones, so histories chain.
func (p *propState) mutate(t *testing.T, c *Collection) [][]float32 {
	t.Helper()
	n := 30 + p.rng.Intn(80)
	for i := 0; i < n; i++ {
		if _, err := c.Insert(p.vector(), p.attrs()); err != nil {
			t.Fatal(err)
		}
	}
	ids := c.Rows()
	live := func(id int64) bool { _, _, err := c.Get(id); return err == nil }
	for i, k := 0, p.rng.Intn(n/5+1); i < k; i++ {
		id, v := int64(p.rng.Intn(ids)), p.vector()
		if !live(id) {
			continue
		}
		if err := c.UpdateVector(id, v); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := 0, p.rng.Intn(n/5+1); i < k; i++ {
		id := int64(p.rng.Intn(ids))
		if !live(id) {
			continue
		}
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if p.rng.Intn(2) == 0 {
		recipes := []struct {
			kind string
			opts map[string]int
		}{
			{"ivfflat", map[string]int{"nlist": 2 + p.rng.Intn(4)}},
			{"hnsw", map[string]int{"m": 4 + p.rng.Intn(4)}},
			{"kdtree", nil},
		}
		// kdtree is L2-only and now says so at build time (it used to
		// rank under squared L2 no matter the schema metric); keep the
		// draw deterministic and substitute a metric-capable family.
		r := recipes[p.rng.Intn(len(recipes))]
		if r.kind == "kdtree" && p.schema.Metric != vec.L2 {
			r = recipes[0]
		}
		if err := c.CreateIndex(r.kind, r.opts); err != nil {
			t.Fatal(err)
		}
		if p.rng.Intn(4) == 0 {
			c.DropIndex()
		}
	}
	// A compaction drops the index the history may just have built.
	if p.rng.Intn(3) == 0 && !p.noCompact {
		if err := c.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	c.WaitForIndex()
	qs := make([][]float32, 5)
	for i := range qs {
		qs[i] = p.vector()
	}
	return qs
}

// requireEquivalent checks row-level and query-level equality under an
// exact-scan plan (index nondeterminism cannot mask divergence; index
// equivalence is checked separately by comparing recipes).
func requireEquivalent(t *testing.T, seed int64, want, got *Collection, qs [][]float32) {
	t.Helper()
	if want.Rows() != got.Rows() || want.Len() != got.Len() {
		t.Fatalf("seed %d: shape rows=%d/%d live=%d/%d", seed, want.Rows(), got.Rows(), want.Len(), got.Len())
	}
	wKind, _, _ := want.IndexInfo()
	gKind, _, _ := got.IndexInfo()
	if wKind != gKind {
		t.Fatalf("seed %d: index recipe %q vs %q", seed, wKind, gKind)
	}
	for id := 0; id < want.Rows(); id++ {
		wv, wa, werr := want.Get(int64(id))
		gv, ga, gerr := got.Get(int64(id))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("seed %d row %d: liveness %v vs %v", seed, id, werr, gerr)
		}
		if werr != nil {
			continue
		}
		for j := range wv {
			if wv[j] != gv[j] {
				t.Fatalf("seed %d row %d float %d: %v vs %v", seed, id, j, wv[j], gv[j])
			}
		}
		for k, v := range wa {
			if ga[k] != v {
				t.Fatalf("seed %d row %d attr %q: %+v vs %+v", seed, id, k, v, ga[k])
			}
		}
	}
	for qi, q := range qs {
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
			t.Fatalf("seed %d query %d: %d vs %d hits", seed, qi, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("seed %d query %d hit %d: %+v vs %+v", seed, qi, i, w[i], g[i])
			}
		}
	}
}

func TestPropertySaveLoadEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema, p := randomSchema(rng)
		c, err := NewCollection("prop", schema)
		if err != nil {
			t.Fatal(err)
		}
		qs := p.mutate(t, c)
		path := filepath.Join(t.TempDir(), "c.snap")
		if err := c.Save(path); err != nil {
			t.Fatal(err)
		}
		re, err := Load(path)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		re.WaitForIndex()
		requireEquivalent(t, seed, c, re, qs)
	}
}

func TestPropertyCheckpointRecoverEquivalence(t *testing.T) {
	for seed := int64(101); seed <= 108; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema, p := randomSchema(rng)
		dir := t.TempDir()
		c, err := CreateDurable(dir, "prop", schema, DurabilityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		qs := p.mutate(t, c)
		// Half the seeds checkpoint mid-history (recovery = checkpoint +
		// replay of the tail); the rest recover from the log alone.
		if seed%2 == 0 {
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if _, err := c.Insert(p.vector(), p.attrs()); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.WaitForIndex()
		// Crash, not Close: no final checkpoint, recovery has to work.
		if err := c.wal.log.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Recover(dir, DurabilityOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		re.WaitForIndex()
		requireEquivalent(t, seed, c, re, qs)
		re.Close()
	}
}

// TestCompactMatchesUncompactedTwin runs each seeded history on two
// durable collections and compacts only one of them: at random points
// of the history, once between two checkpoints at the same LSN, and
// again in the history that follows (logged with ids, not rows). The
// compacted collection must answer as its twin does as compacted,
// after Save→Load, after Checkpoint→Recover, and when recovered from
// the pre-compaction checkpoint plus the log — the disk a crash leaves
// when it strikes before the post-compaction checkpoint lands.
func TestCompactMatchesUncompactedTwin(t *testing.T) {
	for seed := int64(201); seed <= 208; seed++ {
		open := func(noCompact bool) (*Collection, *propState, string) {
			schema, p := randomSchema(rand.New(rand.NewSource(seed)))
			p.noCompact = noCompact
			dir := t.TempDir()
			c, err := CreateDurable(dir, "twin", schema, DurabilityOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return c, p, dir
		}
		c, p, dir := open(false)
		twin, tp, _ := open(true)
		qs := p.mutate(t, c)
		tp.mutate(t, twin)
		// One more delete, so the Compact below has a row to drop.
		for id := int64(0); ; id++ {
			if _, _, err := c.Get(id); err == nil {
				if err := c.Delete(id); err != nil {
					t.Fatal(err)
				}
				if err := twin.Delete(id); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ckpt, _, err := latestCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Compact(); err != nil {
			t.Fatal(err)
		}
		// Compact logs nothing, yet the checkpoint at the same LSN must
		// be rewritten with the compacted rows.
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if post, err := os.ReadFile(ckpt); err != nil || bytes.Equal(post, pre) {
			t.Fatalf("seed %d: the checkpoint after Compact was not rewritten (%v)", seed, err)
		}
		qs = append(qs, p.mutate(t, c)...)
		tp.mutate(t, twin)
		crashed := copyDir(t, dir)
		if err := os.WriteFile(filepath.Join(crashed, filepath.Base(ckpt)), pre, 0o644); err != nil {
			t.Fatal(err)
		}
		requireEquivalent(t, seed, twin, c, qs)

		path := filepath.Join(t.TempDir(), "c.snap")
		if err := c.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(path)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		loaded.WaitForIndex()
		requireEquivalent(t, seed, twin, loaded, qs)

		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Crash, not Close: no final checkpoint.
		if err := c.wal.log.Close(); err != nil {
			t.Fatal(err)
		}
		for _, d := range []string{dir, crashed} {
			re, err := Recover(d, DurabilityOptions{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			re.WaitForIndex()
			requireEquivalent(t, seed, twin, re, qs)
			re.Close()
		}
		twin.Close()
	}
}

// copyDir copies the files of dir into a fresh directory.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
