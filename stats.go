package vdbms

// Public surface of the query-quality observability layer: online
// per-collection statistics (Collection.Stats), and the online recall
// auditor (EnableRecallAudit / AuditRecall), which samples live
// queries into a reservoir and periodically replays them against an
// exact scan to measure the recall actually being served. DESIGN.md
// §11 describes the machinery.

import (
	"vdbms/internal/core"
	"vdbms/internal/stats"
)

// CollectionStats is a point-in-time snapshot of a collection's online
// statistics: row counts and churn rates, query-shape distributions,
// ANN probe cost, the planner's timing calibration, and per-column
// filter selectivity.
type CollectionStats = stats.Snapshot

// StatsDistribution summarizes observed integer query knobs (k, ef,
// nprobe). Buckets maps inclusive upper bucket edges to counts; the
// -1 key is the overflow bucket.
type StatsDistribution = stats.DistSnapshot

// StatsSelectivity is the observed-selectivity histogram for one
// attribute column: Buckets[i] counts observations in [i/20, (i+1)/20).
type StatsSelectivity = stats.SelSnapshot

// Stats returns the collection's online statistics. Lock-free: reading
// it never contends with searches or writers.
func (c *Collection) Stats() CollectionStats { return c.inner.Stats() }

// SetStatsEnabled toggles query observation (query-shape recording,
// selectivity and probe-cost sampling). On by default; mutation and
// query counters stay on regardless.
func (c *Collection) SetStatsEnabled(on bool) { c.inner.SetStatsEnabled(on) }

// AuditOptions configures online recall auditing.
type AuditOptions = core.AuditConfig

// RecallAudit reports one audit pass; Outcome is "ok", "regression",
// "empty", or "error".
type RecallAudit = core.AuditReport

// EnableRecallAudit starts sampling this collection's live queries and
// (when opts.Interval > 0) auditing them in the background: each pass
// replays the sampled queries against an exact scan on a pinned
// snapshot — never blocking serving — and exports the observed
// recall@k as vdbms_recall_observed{collection="..."}.
func (c *Collection) EnableRecallAudit(opts AuditOptions) {
	c.inner.EnableAudit(opts)
}

// DisableRecallAudit stops background auditing and query sampling.
func (c *Collection) DisableRecallAudit() { c.inner.DisableAudit() }

// AuditRecall runs one recall audit pass synchronously and returns its
// report. EnableRecallAudit (even with Interval 0) must have run first
// so there are sampled queries to replay; before that, or before
// MinSamples queries have been sampled, the outcome is "empty".
func (c *Collection) AuditRecall() (RecallAudit, error) { return c.inner.AuditNow() }

// EnableRecallAudit turns on recall auditing for every current
// collection and every collection created or restored later.
func (db *DB) EnableRecallAudit(opts AuditOptions) {
	db.mu.Lock()
	o := opts
	db.audit = &o
	cols := make([]*Collection, 0, len(db.collections))
	for _, c := range db.collections {
		cols = append(cols, c)
	}
	db.mu.Unlock()
	for _, c := range cols {
		c.EnableRecallAudit(opts)
	}
}
