package vdbms

// Public surface of the online per-collection statistics
// (Collection.Stats), described in DESIGN.md §11. The recall loop that
// measures the recall actually being served lives in tuning.go.

import "vdbms/internal/stats"

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
