package vdbms

// Public surface of adaptive query optimization: the recall-SLO
// auto-tuner (EnableAutoTune / TuneNow), per-query and per-collection
// recall targets (SearchRequest.TargetRecall / SetTargetRecall), and
// collection-level search-parameter defaults (SetSearchDefaults).
// DESIGN.md §14 describes the machinery: a background pass replays
// sampled live queries against exact ground truth and against the
// index at every rung of an Ef/NProbe ladder, maintains a
// recall-vs-cost frontier per (index kind, k), and resolves a target
// recall to the cheapest parameter the frontier proves meets it.
// With Reselect enabled, the same pass watches for drift no parameter
// can fix and hands a new index recipe to the background builder for
// a non-blocking swap.

import "vdbms/internal/core"

// TuneOptions configures the recall-SLO auto-tuner.
type TuneOptions = core.TuneConfig

// TuneReport reports one tuning pass. Resolved is the parameter the
// frontier currently resolves for the target at the pass's dominant k
// (Trusted: from measured data, not the safe default); a BestRecall
// below Target means no parameter can meet the SLO and only a stronger
// index can.
type TuneReport = core.TuneReport

// EnableAutoTune starts sampling this collection's live queries and
// (when opts.Interval > 0) tuning them in the background. Each pass
// replays sampled queries against exact ground truth and against the
// index across a ladder of Ef/NProbe values, building the
// recall-vs-cost frontier that answers SearchRequest.TargetRecall.
// Tuning runs entirely off the query path.
func (c *Collection) EnableAutoTune(opts TuneOptions) {
	c.inner.EnableTune(opts)
}

// DisableAutoTune stops background tuning. The learned frontier is
// kept: queries with a recall target keep resolving against the last
// measured state.
func (c *Collection) DisableAutoTune() { c.inner.DisableTune() }

// TuneNow runs one tuning pass synchronously and returns its report.
// EnableAutoTune (even with Interval 0) must have run first so there
// are sampled queries to replay; before that the outcome is "empty".
func (c *Collection) TuneNow() (TuneReport, error) { return c.inner.TuneNow() }

// SetTargetRecall sets (or clears, with 0) the collection's default
// recall target. Queries without explicit Ef/NProbe or a per-query
// TargetRecall resolve their search parameters against it.
func (c *Collection) SetTargetRecall(target float64) {
	c.inner.SetTargetRecall(target)
}

// TargetRecall reports the collection's default recall target (0 =
// none).
func (c *Collection) TargetRecall() float64 { return c.inner.TargetRecall() }

// SetSearchDefaults sets collection-level default search parameters,
// used when a query carries neither explicit knobs nor a recall
// target. Zeros clear them (the index's built-in defaults apply).
func (c *Collection) SetSearchDefaults(ef, nprobe int) {
	c.inner.SetSearchDefaults(ef, nprobe)
}

// SearchDefaults reports the collection-level default search
// parameters set by SetSearchDefaults.
func (c *Collection) SearchDefaults() (ef, nprobe int) {
	return c.inner.SearchDefaults()
}

// EnableAutoTune turns on auto-tuning for every current collection
// and every collection created or restored later.
func (db *DB) EnableAutoTune(opts TuneOptions) {
	db.mu.Lock()
	o := opts
	db.tune = &o
	cols := make([]*Collection, 0, len(db.collections))
	for _, c := range db.collections {
		cols = append(cols, c)
	}
	db.mu.Unlock()
	for _, c := range cols {
		c.EnableAutoTune(opts)
	}
}
