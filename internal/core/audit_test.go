package core

import (
	"log"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"vdbms/internal/dataset"
	"vdbms/internal/filter"
	"vdbms/internal/stats"
	"vdbms/internal/vec"
)

// TestAuditObservedRecallMatchesTruth is the acceptance check for the
// online recall auditor: on a 50k-vector collection served by a
// deliberately degraded IVF index (nprobe=1 of 64 lists), the recall
// the auditor reports from its sampled replays must match the
// brute-force true recall of the very same served queries to within
// ±0.02.
func TestAuditObservedRecallMatchesTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-row dataset")
	}
	const (
		n  = 50_000
		d  = 8
		k  = 10
		nq = 100
	)
	ds := dataset.Uniform(n, d, 23)
	c, err := NewCollection("audit", Schema{Dim: d})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("ivfflat", map[string]int{"nlist": 64}); err != nil {
		t.Fatal(err)
	}

	// Sampling on, reservoir big enough to retain every query, no
	// background loop — the test drives passes itself.
	c.EnableAudit(AuditConfig{ReservoirSize: 2 * nq})
	defer c.DisableAudit()

	queries := ds.Queries(nq, 0.1, 29)
	truth := dataset.GroundTruth(vec.Distance(vec.L2), ds, queries, k)
	var trueSum float64
	for i, q := range queries {
		res, err := c.Search(bg, SearchRequest{Vector: q, K: k, NProbe: 1, Policy: "plan:single_stage"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Hits) != k {
			t.Fatalf("query %d returned %d hits, want %d", i, len(res.Hits), k)
		}
		inTruth := map[int64]bool{}
		for _, r := range truth[i] {
			inTruth[r.ID] = true
		}
		hits := 0
		for _, r := range res.Hits {
			if inTruth[r.ID] {
				hits++
			}
		}
		trueSum += float64(hits) / float64(k)
	}
	trueRecall := trueSum / nq

	rep, err := c.AuditNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != nq {
		t.Fatalf("audited %d samples, want %d (stale=%d)", rep.Samples, nq, rep.Stale)
	}
	if rep.Outcome != "ok" {
		t.Fatalf("outcome = %q, want ok (recall=%.4f)", rep.Outcome, rep.Recall)
	}
	// The index must actually be degraded, or the audit proves nothing.
	if trueRecall >= 0.95 {
		t.Fatalf("true recall %.4f: nprobe=1 index not degraded enough to test against", trueRecall)
	}
	if diff := math.Abs(rep.Recall - trueRecall); diff > 0.02 {
		t.Fatalf("observed recall %.4f vs true recall %.4f: |diff| %.4f > 0.02",
			rep.Recall, trueRecall, diff)
	}
}

// TestAuditRegressionAndEmptyOutcomes covers the floor and the
// not-enough-samples path.
func TestAuditRegressionAndEmptyOutcomes(t *testing.T) {
	ds := dataset.Uniform(2000, 8, 31)
	c, err := NewCollection("reg", Schema{Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Count; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}

	// Before sampling starts the reservoir is empty: outcome "empty".
	rep, err := c.AuditNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != "empty" || rep.Samples != 0 {
		t.Fatalf("pre-sampling audit = %+v, want empty/0", rep)
	}

	logged := captureLog(t, `recall regression on "reg"`)
	c.EnableAudit(AuditConfig{
		RecallFloor: 1.1, // every pass regresses: recall can never exceed 1
		MinSamples:  4,
	})
	defer c.DisableAudit()
	for i := 0; i < 16; i++ {
		if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(i), K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err = c.AuditNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != "regression" {
		t.Fatalf("outcome = %q, want regression (recall=%.4f)", rep.Outcome, rep.Recall)
	}
	if n := len(logged()); n != 1 {
		t.Fatalf("regression log lines = %d, want 1", n)
	}
	// Exact serving (no index) replayed exactly must audit at recall 1.
	if rep.Recall != 1 {
		t.Fatalf("flat-scan recall = %.4f, want 1", rep.Recall)
	}
}

// TestAuditSkipsStaleSamples: a sample whose served rows have since
// been deleted is skipped as stale rather than biasing recall down.
func TestAuditSkipsStaleSamples(t *testing.T) {
	ds := dataset.Uniform(500, 4, 37)
	c, err := NewCollection("stale", Schema{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Count; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	c.EnableAudit(AuditConfig{MinSamples: 1})
	defer c.DisableAudit()
	res, err := c.Search(bg, SearchRequest{Vector: ds.Row(0), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(res.Hits[0].ID); err != nil {
		t.Fatal(err)
	}
	rep, err := c.AuditNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stale != 1 || rep.Samples != 0 {
		t.Fatalf("stale=%d samples=%d, want 1/0", rep.Stale, rep.Samples)
	}
	if rep.Outcome != "empty" {
		t.Fatalf("outcome = %q, want empty", rep.Outcome)
	}
}

// TestAuditSkipsUpdatedSamples: a sample served before an in-place
// vector update is skipped as stale (the data it was ranked against
// has changed), and samples served after the update replay normally.
func TestAuditSkipsUpdatedSamples(t *testing.T) {
	ds := dataset.Uniform(400, 4, 43)
	c, err := NewCollection("upd", Schema{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Count; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	c.EnableAudit(AuditConfig{MinSamples: 1})
	defer c.DisableAudit()
	if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(0), K: 3}); err != nil {
		t.Fatal(err)
	}
	// Overwrite a row the sample may not even contain: any in-place
	// update invalidates earlier samples wholesale.
	if err := c.UpdateVector(7, ds.Row(8)); err != nil {
		t.Fatal(err)
	}
	rep, err := c.AuditNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stale != 1 || rep.Samples != 0 || rep.Outcome != "empty" {
		t.Fatalf("post-update audit = %+v, want stale=1 samples=0 empty", rep)
	}
	// A query served after the update carries the new epoch and replays.
	if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(1), K: 3}); err != nil {
		t.Fatal(err)
	}
	rep, err = c.AuditNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stale != 1 || rep.Samples != 1 || rep.Outcome != "ok" {
		t.Fatalf("post-update audit #2 = %+v, want stale=1 samples=1 ok", rep)
	}
}

// TestAuditErrorOutcome: a pass that fails mid-replay reports the
// "error" outcome (counted in vdbms_recall_audit_total) instead of
// silently producing nothing, and the background loop logs the cause.
func TestAuditErrorOutcome(t *testing.T) {
	ds := dataset.Uniform(100, 4, 47)
	c, err := NewCollection("err", Schema{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Count; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Inject a sample whose predicate references a column the
	// collection does not have: replay must fail.
	r := stats.NewReservoirRand(4, func(n int64) int64 { return 0 })
	r.Offer(stats.Sample{
		Vector: ds.Row(0),
		K:      1,
		Preds:  []filter.Predicate{{Column: "no_such", Op: filter.Eq, Value: filter.IntV(1)}},
		Served: []int64{0},
	})
	c.sampler.Store(r)

	rep, err := c.AuditNow()
	if err == nil {
		t.Fatal("audit over a broken sample reported no error")
	}
	if rep.Outcome != "error" {
		t.Fatalf("outcome = %q, want error", rep.Outcome)
	}

	// The background loop logs failed passes rather than dropping them.
	logged := captureLog(t, `recall audit on "err"`)
	c.EnableAudit(AuditConfig{Interval: time.Millisecond})
	defer c.DisableAudit()
	c.sampler.Store(r) // EnableAudit keeps the injected reservoir; re-store for clarity
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(logged()) == 0 {
		time.Sleep(time.Millisecond)
	}
	lines := logged()
	if len(lines) == 0 {
		t.Fatal("background loop never logged the failing pass")
	}
	if !strings.Contains(lines[0], "failed") {
		t.Fatalf("log line %q does not mention the failure", lines[0])
	}
}

// captureLog sends the standard logger, which the audit and tune loops
// write to, into a buffer until the test ends, and returns a function
// listing the lines logged so far that contain match.
func captureLog(t *testing.T, match string) func() []string {
	var mu sync.Mutex
	var buf strings.Builder
	prev := log.Writer()
	log.SetOutput(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}))
	t.Cleanup(func() { log.SetOutput(prev) })
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		var out []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, match) {
				out = append(out, line)
			}
		}
		return out
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestAuditDisableNeverDeadlocks: DisableAudit (and reconfiguring
// EnableAudit) must not deadlock against a background pass in flight.
// The historical hazard: stopping the loop while holding auditMu when
// a tick was about to read the config through the same mutex.
func TestAuditDisableNeverDeadlocks(t *testing.T) {
	ds := dataset.Uniform(500, 4, 53)
	c, err := NewCollection("dead", Schema{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Count; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.EnableAudit(AuditConfig{Interval: time.Millisecond, MinSamples: 1})
		for i := 0; i < 8; i++ {
			if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(i), K: 2}); err != nil {
				return
			}
		}
		// Stop/start repeatedly with ticks firing in between so a pass
		// is regularly in flight when the loop is torn down.
		for i := 0; i < 30; i++ {
			time.Sleep(time.Millisecond)
			c.EnableAudit(AuditConfig{Interval: time.Millisecond, MinSamples: 1})
		}
		c.DisableAudit()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("EnableAudit/DisableAudit deadlocked against the audit loop")
	}
}

// TestAuditBackgroundLoop: a configured interval runs passes without
// explicit AuditNow calls, and DisableAudit stops the loop.
func TestAuditBackgroundLoop(t *testing.T) {
	ds := dataset.Uniform(300, 4, 41)
	c, err := NewCollection("bg", Schema{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Count; i++ {
		if _, err := c.Insert(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	c.EnableAudit(AuditConfig{Interval: time.Millisecond, MinSamples: 1})
	for i := 0; i < 8; i++ {
		if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(i), K: 2}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.sampler.Load().Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Wait for at least one background pass to land in the metrics by
	// watching the per-collection gauge the loop sets.
	for time.Now().Before(deadline) {
		if rep, _ := c.AuditNow(); rep.Outcome == "ok" {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.DisableAudit()
	if c.auditStop != nil {
		t.Fatal("DisableAudit left the loop running")
	}
	// Disabled sampling: new queries are not offered.
	seen := c.sampler.Load().Seen()
	if _, err := c.Search(bg, SearchRequest{Vector: ds.Row(0), K: 2}); err != nil {
		t.Fatal(err)
	}
	if got := c.sampler.Load().Seen(); got != seen {
		t.Fatalf("reservoir saw %d offers after DisableAudit, want %d", got, seen)
	}
}

// TestSamplerSwappable: tests can install a deterministic reservoir.
func TestSamplerSwappable(t *testing.T) {
	c, err := NewCollection("swap", Schema{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert([]float32{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	r := stats.NewReservoirRand(4, func(n int64) int64 { return 0 })
	c.sampler.Store(r)
	c.sampling.Store(true)
	if _, err := c.Search(bg, SearchRequest{Vector: []float32{1, 2}, K: 1}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("injected reservoir holds %d samples, want 1", r.Len())
	}
}
