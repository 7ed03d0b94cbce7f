// Online recall auditing: the operational answer to "what recall is
// this collection actually serving". The serving path feeds a uniform
// reservoir of live queries (vector, predicates, k, and the ids it
// returned); a background auditor periodically replays the reservoir
// against an exact flat scan on a pinned epoch snapshot and compares.
// The replay runs entirely off the query path — it loads the snapshot
// pointer like any reader and never takes the writer lock — so audits
// cost CPU, not latency. Observed recall@k is exported per collection
// as vdbms_recall_observed; passes count into vdbms_recall_audit_total
// by outcome, and a pass below the configured floor logs a regression.
//
// Accuracy caveat (documented in DESIGN.md §11): samples are replayed
// against the snapshot current at audit time, not the one they were
// served from. Rows deleted or updated in between would bias recall
// down through no fault of the index, so samples whose served ids are
// no longer live — and samples stamped before the collection's last
// in-place vector update (the update epoch) — are skipped as stale;
// the reservoir continuously refreshes, so churn costs sample count,
// not correctness.
package core

import (
	"fmt"
	"log"
	"time"

	"vdbms/internal/obs"
	"vdbms/internal/stats"
)

// AuditConfig configures a collection's recall auditor (the public
// API's AuditOptions).
type AuditConfig struct {
	// Interval is the cadence of background audit passes. Zero runs no
	// background loop — sampling still starts, and AuditNow runs passes
	// on demand.
	Interval time.Duration
	// ReservoirSize caps how many live queries are retained for replay;
	// 0 keeps the current size (default 256).
	ReservoirSize int
	// RecallFloor, when positive, logs a regression and counts it in
	// vdbms_recall_audit_total{outcome="regression"} whenever a pass
	// observes recall below it.
	RecallFloor float64
	// MinSamples is the minimum replayable samples for a pass to
	// report a recall figure; below it the pass is recorded as "empty".
	// Default 8.
	MinSamples int
}

// AuditReport is the result of one audit pass (the public API's
// RecallAudit).
type AuditReport struct {
	Collection string        `json:"collection"`
	Outcome    string        `json:"outcome"` // ok, regression, empty, error
	Samples    int           `json:"samples"` // replayed (non-stale) samples
	Stale      int           `json:"stale"`   // skipped: served rows deleted or updated since
	Recall     float64       `json:"recall"`  // mean recall@k; meaningful when Outcome is ok or regression
	Floor      float64       `json:"floor"`
	Elapsed    time.Duration `json:"elapsed_ns"`
}

// EnableAudit turns on query sampling and (when cfg.Interval > 0) the
// background audit loop. Calling it again reconfigures: the old loop
// is stopped before the new one starts. Safe while searches run.
func (c *Collection) EnableAudit(cfg AuditConfig) {
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 8
	}
	c.auditMu.Lock()
	defer c.auditMu.Unlock()
	if cfg.ReservoirSize > 0 && cfg.ReservoirSize != c.sampler.Load().Cap() {
		c.sampler.Store(stats.NewReservoir(cfg.ReservoirSize))
	}
	c.auditCfg = cfg
	c.stopAuditLoopLocked()
	c.samplingAudit.Store(true)
	c.refreshSampling()
	if cfg.Interval > 0 {
		stop, done := make(chan struct{}), make(chan struct{})
		c.auditStop, c.auditDone = stop, done
		go c.auditLoop(cfg, stop, done)
	}
}

// DisableAudit stops the background loop and the auditor's interest
// in query sampling (the auto-tuner's interest, if any, keeps sampling
// on). The reservoir keeps its contents so AuditNow can still replay
// them.
func (c *Collection) DisableAudit() {
	c.auditMu.Lock()
	defer c.auditMu.Unlock()
	c.samplingAudit.Store(false)
	c.refreshSampling()
	c.stopAuditLoopLocked()
}

// stopAuditLoopLocked stops the background loop and waits for it to
// exit. Waiting while holding auditMu is safe because the loop never
// touches auditMu: it runs on the config captured at start (auditLoop
// calls audit directly, never AuditNow), so a tick can finish its
// pass and reach the stop channel without needing the mutex the
// caller holds.
func (c *Collection) stopAuditLoopLocked() {
	if c.auditStop != nil {
		close(c.auditStop)
		<-c.auditDone
		c.auditStop, c.auditDone = nil, nil
	}
}

func (c *Collection) auditLoop(cfg AuditConfig, stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			// audit counts the outcome (including "error") in metrics;
			// log the cause so a persistently failing auditor leaves an
			// operational trail. The next tick retries.
			if _, err := c.audit(cfg); err != nil {
				log.Printf("vdbms: recall audit on %q failed: %v", c.name, err)
			}
		case <-stop:
			return
		}
	}
}

// AuditNow runs one audit pass synchronously with the current
// configuration and returns its report. It never blocks writers or
// searches: the replay runs on a snapshot pinned at entry.
func (c *Collection) AuditNow() (AuditReport, error) {
	c.auditMu.Lock()
	cfg := c.auditCfg
	c.auditMu.Unlock()
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 8
	}
	return c.audit(cfg)
}

func (c *Collection) audit(cfg AuditConfig) (AuditReport, error) {
	start := time.Now()
	rep := AuditReport{Collection: c.name, Floor: cfg.RecallFloor}
	samples := c.sampler.Load().Snapshot()
	// Pin as a reader: the exact replays below scan the snapshot's
	// column, so in-place update patching must be fenced out for the
	// whole pass (updates fall back to copy-on-write meanwhile).
	c.beginRead()
	defer c.endRead()
	s := c.snap.Load()
	// The update epoch is read after the snapshot pointer: snapshot
	// publication is monotonic, so every update counted in epoch at
	// this point is either visible in s or newer than every sample —
	// either way a sample stamped < epoch is conservatively stale.
	epoch := c.updateEpoch.Load()
	deleted := s.deleted()

	var sum float64
	for _, sm := range samples {
		if sm.K <= 0 || len(sm.Vector) == 0 {
			continue
		}
		// Served before the last in-place vector update: the rows it
		// was ranked against have changed under it, so replaying would
		// bias recall through no fault of the index.
		if sm.Epoch < epoch {
			rep.Stale++
			continue
		}
		stale := false
		for _, id := range sm.Served {
			if id < 0 || id >= int64(s.rows) || (deleted != nil && deleted.Test(int(id))) {
				stale = true
				break
			}
		}
		if stale {
			rep.Stale++
			continue
		}
		truth, err := s.env.ExactGroundTruth(sm.Vector, sm.K, sm.Preds, deleted)
		if err != nil {
			rep.Outcome = "error"
			obs.RecallAudits.With("error").Inc()
			return rep, fmt.Errorf("core: audit replay: %w", err)
		}
		if len(truth) == 0 {
			continue // predicate admits nothing now; recall undefined
		}
		truthSet := make(map[int64]struct{}, len(truth))
		for _, r := range truth {
			truthSet[r.ID] = struct{}{}
		}
		hits := 0
		for _, id := range sm.Served {
			if _, ok := truthSet[id]; ok {
				hits++
			}
		}
		denom := sm.K
		if len(truth) < denom {
			denom = len(truth) // fewer than k rows satisfy the query
		}
		sum += float64(hits) / float64(denom)
		rep.Samples++
	}

	rep.Elapsed = time.Since(start)
	obs.RecallAuditSeconds.Observe(rep.Elapsed.Seconds())
	obs.RecallAuditSamples.Add(int64(rep.Samples))
	if rep.Samples < cfg.MinSamples {
		rep.Outcome = "empty"
		obs.RecallAudits.With("empty").Inc()
		return rep, nil
	}
	rep.Recall = sum / float64(rep.Samples)
	obs.RecallObserved.With(c.name).Set(rep.Recall)
	if cfg.RecallFloor > 0 && rep.Recall < cfg.RecallFloor {
		rep.Outcome = "regression"
		obs.RecallAudits.With("regression").Inc()
		log.Printf("vdbms: recall regression on %q: observed recall@k %.4f below floor %.4f (%d samples)",
			c.name, rep.Recall, cfg.RecallFloor, rep.Samples)
		return rep, nil
	}
	rep.Outcome = "ok"
	obs.RecallAudits.With("ok").Inc()
	return rep, nil
}
