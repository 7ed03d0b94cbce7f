package vdbms

// Public surface of the recall loop: one background pass per
// collection (EnableRecall / RecallNow) that replays sampled live
// queries against exact ground truth, both to audit the recall being
// served and to tune the knobs that serve it; and per-query and
// per-collection recall targets (SearchRequest.TargetRecall /
// SetTargetRecall). DESIGN.md §14 describes the machinery: the
// served ids are scored against the truth and exported as
// vdbms_recall_observed, and some of the samples are replayed against
// the index at every rung of an Ef/NProbe ladder, maintaining a
// recall-vs-cost frontier per (index kind, k) that resolves a target
// recall to the cheapest parameter proven to meet it. With Reselect
// enabled, the same pass watches for drift no parameter can fix and
// hands a new index recipe to the background builder for a
// non-blocking swap.

import "vdbms/internal/core"

// RecallOptions configures the recall loop.
type RecallOptions = core.RecallConfig

// RecallReport reports one recall pass. Outcome is "ok", "regression",
// "empty" or "error"; Recall is the observed recall@k of the served
// answers. Resolved is the parameter the frontier currently resolves
// for the target at the pass's dominant k (Trusted: from measured
// data, not the safe default); a BestRecall below Target means no
// parameter can meet the SLO and only a stronger index can.
type RecallReport = core.RecallReport

// EnableRecall starts sampling this collection's live queries and
// (when opts.Interval > 0) replaying them in the background. Each pass
// runs on a pinned snapshot, never blocking serving or writes.
// Calling it again reconfigures the loop.
func (c *Collection) EnableRecall(opts RecallOptions) { c.inner.EnableRecall(opts) }

// DisableRecall stops the background loop and query sampling. The
// learned frontier is kept: queries with a recall target keep
// resolving against the last measured state.
func (c *Collection) DisableRecall() { c.inner.DisableRecall() }

// RecallNow runs one recall pass synchronously and returns its report.
// EnableRecall (even with Interval 0) must have run first so there are
// sampled queries to replay; before that, or before MinSamples queries
// have been sampled, the outcome is "empty".
func (c *Collection) RecallNow() (RecallReport, error) { return c.inner.RecallNow() }

// SetTargetRecall sets (or clears, with 0) the collection's default
// recall target. Queries without explicit Ef/NProbe or a per-query
// TargetRecall resolve their search parameters against it.
func (c *Collection) SetTargetRecall(target float64) {
	c.inner.SetTargetRecall(target)
}

// TargetRecall reports the collection's default recall target (0 =
// none).
func (c *Collection) TargetRecall() float64 { return c.inner.TargetRecall() }

// EnableRecall turns on the recall loop for every current collection
// and every collection created or restored later.
func (db *DB) EnableRecall(opts RecallOptions) {
	db.mu.Lock()
	o := opts
	db.recall = &o
	cols := make([]*Collection, 0, len(db.collections))
	for _, c := range db.collections {
		cols = append(cols, c)
	}
	db.mu.Unlock()
	for _, c := range cols {
		c.EnableRecall(opts)
	}
}
