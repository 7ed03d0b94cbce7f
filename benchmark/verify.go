package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vdbms"
)

// hit mirrors one element of "Hits" in a search response.
type hit struct {
	ID   int64
	Dist float32
}

// checkHits verifies one search response against the benchmark's own copy
// of the data and returns its recall@10. rowOf maps an id to its row of
// data (nil: ids are rows). truth is the exact answer, exactIDs demands it
// id for id.
func checkHits(body []byte, q *query, data []float32, cat []int64, rowOf []int, live int, exactIDs bool) (float64, error) {
	var res struct{ Hits []hit }
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, fmt.Errorf("undecodable response: %w", err)
	}
	if len(res.Hits) == 0 || len(res.Hits) > topK {
		return 0, fmt.Errorf("%d hits for k=%d", len(res.Hits), topK)
	}
	seen := map[int64]bool{}
	good := 0
	for i, h := range res.Hits {
		if h.ID < 0 || h.ID >= int64(live) {
			return 0, fmt.Errorf("hit id %d is not a live row (0..%d)", h.ID, live-1)
		}
		if seen[h.ID] {
			return 0, fmt.Errorf("hit id %d returned twice", h.ID)
		}
		seen[h.ID] = true
		row := int(h.ID)
		if rowOf != nil {
			row = rowOf[h.ID]
		}
		want := squaredL2(q.vec, data[row*dim:(row+1)*dim])
		if diff := math.Abs(float64(h.Dist - want)); diff > 1e-4*math.Max(1, float64(want)) {
			return 0, fmt.Errorf("hit id %d: distance %g, recomputed %g", h.ID, h.Dist, want)
		}
		if i > 0 && h.Dist < res.Hits[i-1].Dist {
			return 0, fmt.Errorf("hits not in ascending distance at position %d", i)
		}
		if q.thresh > 0 && cat[row] >= q.thresh {
			return 0, fmt.Errorf("hit id %d has cat=%d, predicate is cat < %d", h.ID, cat[row], q.thresh)
		}
		if exactIDs && (i >= len(q.truth) || h.ID != q.truth[i]) {
			return 0, fmt.Errorf("position %d: id %d, ground truth %v", i, h.ID, q.truth)
		}
		if q.asNear(want) {
			good++
		}
	}
	if exactIDs && len(res.Hits) != len(q.truth) {
		return 0, fmt.Errorf("%d hits, ground truth has %d", len(res.Hits), len(q.truth))
	}
	if len(q.truth) == 0 {
		return 0, nil // checked without ground truth; recall is not asked for
	}
	return float64(good) / float64(len(q.truth)), nil
}

// asNear reports whether a hit at distance d counts towards recall: it is
// as near as the k-th true neighbour, so that equidistant rows cannot cost
// recall. A query without ground truth counts nothing.
func (q *query) asNear(d float32) bool {
	return len(q.truthDist) > 0 && d <= q.truthDist[len(q.truthDist)-1]*(1+1e-5)
}

// verifyStatic checks the last response every client saw for every pool
// query of a read-only workload. The index is static and its search is
// deterministic, so the last response stands for all of them.
func verifyStatic(f *fixture, cs []*client, qs []query) (recall float64, err error) {
	exact := f.spec.policy == "plan:brute_force"
	var sum float64
	n := 0
	for ci, c := range cs {
		for qi, body := range c.last {
			if body == nil {
				continue
			}
			r, err := checkHits(body, &qs[qi], f.data.Data, f.cat, nil, f.rows, exact)
			if err != nil {
				return 0, fmt.Errorf("client %d query %d: %w", ci, qi, err)
			}
			sum += r
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("no response was recorded")
	}
	recall = sum / float64(n)
	if exact && recall != 1 {
		return recall, fmt.Errorf("exact scan recall %g, want 1", recall)
	}
	if recall < 0.90 {
		return recall, fmt.Errorf("recall@%d %g is below 0.90", topK, recall)
	}
	return recall, nil
}

// recovery is what reopening a copy of the data directory, taken without
// Close, found.
type recovery struct {
	seconds  float64
	fraction float64 // acked inserts readable after recovery
}

// verifyMixed checks mixed_rw_durable after the clients have stopped:
// every acked insert is readable, every recorded hit is a real row at its
// real distance, the quiesced collection answers the pool with recall
// measured against the benchmark's own brute force, and a copy of the data
// directory taken without Close recovers every acked insert.
func verifyMixed(cfg config, f *fixture, cs []*client, qs []query) (float64, error) {
	var acks []ack
	for _, c := range cs {
		acks = append(acks, c.acked...)
	}
	live := f.rows + len(acks)
	if got := f.col.Len(); got != live {
		return 0, fmt.Errorf("collection holds %d rows, loaded %d and %d inserts were acked", got, f.rows, len(acks))
	}
	rowOf := make([]int, live)
	for i := range rowOf {
		rowOf[i] = -1
	}
	for i := 0; i < f.rows; i++ {
		rowOf[i] = i
	}
	for _, a := range acks {
		if a.id < int64(f.rows) || a.id >= int64(live) || rowOf[a.id] != -1 {
			return 0, fmt.Errorf("acked id %d is out of range or was acked twice", a.id)
		}
		rowOf[a.id] = a.row
	}
	if err := ackedReadable(f, f.col, acks); err != nil {
		return 0, err
	}
	for ci, c := range cs {
		for qi, body := range c.last {
			if body == nil {
				continue
			}
			noTruth := query{vec: qs[qi].vec}
			if _, err := checkHits(body, &noTruth, f.data.Data, f.cat, rowOf, live, false); err != nil {
				return 0, fmt.Errorf("client %d query %d: %w", ci, qi, err)
			}
		}
	}

	// Recall on the quiesced final state, against brute force over the
	// benchmark's copy of what the collection now holds.
	f.col.WaitForIndex()
	final := make([]float32, 0, live*dim)
	finalCat := make([]int64, live)
	for id, row := range rowOf {
		final = append(final, f.data.Row(row)...)
		finalCat[id] = f.cat[row]
	}
	sample := make([]query, min(len(qs), 200))
	for i := range sample {
		sample[i] = query{vec: qs[i].vec, body: qs[i].body}
	}
	groundTruth(sample, final, finalCat, live)
	c := &client{f: f, hc: newHTTPClient()}
	defer c.hc.CloseIdleConnections()
	var sum float64
	for i := range sample {
		resp, err := c.post(f.searchPath(), sample[i].body)
		if err != nil || resp.StatusCode != 200 {
			return 0, fmt.Errorf("quiesced query %d failed: %v", i, err)
		}
		r, err := checkHits(c.buf.Bytes(), &sample[i], final, finalCat, nil, live, false)
		if err != nil {
			return 0, fmt.Errorf("quiesced query %d: %w", i, err)
		}
		sum += r
	}
	recall := sum / float64(len(sample))
	if recall < 0.90 {
		return recall, fmt.Errorf("quiesced recall@%d %g is below 0.90", topK, recall)
	}

	_, err := recoverCopy(cfg, f, acks)
	return recall, err
}

// ackedReadable demands that Get returns, for every acked insert, exactly
// the vector that was sent.
func ackedReadable(f *fixture, col *vdbms.Collection, acks []ack) error {
	for _, a := range acks {
		v, _, err := col.Get(a.id)
		if err != nil {
			return fmt.Errorf("acked id %d is not readable: %w", a.id, err)
		}
		want := f.data.Row(a.row)
		for j := range want {
			if v[j] != want[j] {
				return fmt.Errorf("acked id %d reads back a different vector", a.id)
			}
		}
	}
	return nil
}

// recoverCopy copies the live data directory without closing the database,
// as a crash would leave it, opens the copy and looks for every acked
// insert in it.
func recoverCopy(cfg config, f *fixture, acks []ack) (recovery, error) {
	var rec recovery
	dst := filepath.Join(cfg.workdir, "crash-copy")
	defer os.RemoveAll(dst)
	if err := snapshotCopy(f.dir, dst); err != nil {
		return rec, fmt.Errorf("copy data directory: %w", err)
	}
	start := time.Now()
	db, err := vdbms.Open(dst, vdbms.Durability{Fsync: "always", CheckpointInterval: -1})
	if err != nil {
		return rec, fmt.Errorf("recover copy: %w", err)
	}
	rec.seconds = time.Since(start).Seconds()
	defer db.Close()
	col, err := db.Collection(f.colName())
	if err != nil {
		return rec, fmt.Errorf("recover copy: %w", err)
	}
	found := 0
	for _, a := range acks {
		if ackedReadable(f, col, []ack{a}) == nil {
			found++
		}
	}
	rec.fraction = 1
	if len(acks) > 0 {
		rec.fraction = float64(found) / float64(len(acks))
	}
	if found != len(acks) {
		return rec, fmt.Errorf("%d of %d acked inserts survive recovery", found, len(acks))
	}
	return rec, nil
}

// snapshotCopy copies src to dst as one point in time. No client is
// writing, but the background checkpointer may still rotate the log or
// retire a segment half way through a copy, which would tear the image in
// a way no crash can; a copy is kept only when the listing of src is the
// same after it as before.
func snapshotCopy(src, dst string) error {
	for try := 0; try < 10; try++ {
		before, err := listing(src)
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dst); err != nil {
			return err
		}
		// A file retired between the walk and its copy fails the copy; that
		// is a change like any other, so try again.
		cerr := os.CopyFS(dst, os.DirFS(src))
		after, err := listing(src)
		if err != nil {
			return err
		}
		if cerr == nil && before == after {
			return nil
		}
	}
	return fmt.Errorf("%s kept changing while it was copied", src)
}

// listing names every file under dir with its size.
func listing(dir string) (string, error) {
	var sb strings.Builder
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		fmt.Fprintf(&sb, "%s %d\n", path, info.Size())
		return nil
	})
	return sb.String(), err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
