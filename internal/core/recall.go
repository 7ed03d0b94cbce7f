// The recall loop: one background pass per collection that both audits
// the recall being served and tunes the knobs that serve it.
//
// The serving path feeds a uniform reservoir of live queries (vector,
// predicates, k, the ids it returned, and the row count and update
// epoch of the snapshot that answered). Each pass pins the current
// snapshot like any reader and, for every usable sample, computes the
// exact ground truth once. It then does two things with that answer:
//
//   - Audit: the served ids are scored against it. The mean is the
//     observed recall@k, exported as vdbms_recall_observed; a pass below
//     the configured floor logs a regression.
//   - Tune: for up to PassSamples of those samples the ANN index is
//     replayed at every rung of a parameter ladder (ef for graph/tree
//     families, nprobe for partition families) and scored against the
//     same truth, maintaining a per-(index kind, k-bucket)
//     recall-vs-cost frontier (internal/tuner). A query carrying a
//     target recall resolves to the cheapest parameter the frontier
//     proves meets it (Collection.resolveKnobs).
//
// Samples are replayed against the snapshot current at pass time, not
// the one that served them, so three rules keep churn out of the
// measurement: a sample whose served ids were since deleted, or that
// was served before the last in-place vector update or Compact, is
// skipped as stale; and the exact scan and the ladder replays see only
// the rows the sample's snapshot held (rows < Sample.Rows), so rows
// inserted since never count against the ids that were served. The
// pass scores in rows: served ids map to rows once, and truth and
// replays never leave them.
//
// The same pass watches for drift no parameter can fix: a collection
// grown past the exact-scan/graph crossover with no index at all, a
// frontier whose best rung cannot reach the target, or a workload
// turned highly-filtered-and-selective where a partition index beats a
// graph. A decision that repeats on consecutive passes (debounce) and
// falls outside the post-fire cooldown is handed to the background
// builder as a new recipe.
//
// Everything here runs off the query path. Lock order: recallLife
// (lifecycle and config) is never taken by a pass; tuneMu (frontiers,
// drift debounce, ladder cursor) and mu are never held together.
package core

import (
	"fmt"
	"log"
	"maps"
	"math"
	"time"

	"vdbms/internal/bitset"
	"vdbms/internal/executor"
	"vdbms/internal/index"
	"vdbms/internal/index/hnsw"
	"vdbms/internal/obs"
	"vdbms/internal/stats"
	"vdbms/internal/tuner"
)

// RecallConfig configures a collection's recall loop (the public API's
// RecallOptions).
type RecallConfig struct {
	// Interval is the cadence of background passes. Zero runs no
	// background loop — sampling still starts, and RecallNow runs passes
	// on demand.
	Interval time.Duration
	// ReservoirSize caps how many live queries are retained for replay;
	// 0 keeps the current size (default 256).
	ReservoirSize int
	// MinSamples is the minimum scored samples for a pass to report a
	// recall figure (below it the outcome is "empty"), and the replay
	// count a ladder rung needs before the tuner trusts it. Default 8.
	MinSamples int
	// RecallFloor, when positive, logs a regression and counts it in
	// vdbms_recall_audit_total{outcome="regression"} whenever a pass
	// observes recall below it.
	RecallFloor float64
	// TargetRecall, in (0,1], becomes the collection's default recall
	// target (same effect as SetTargetRecall): queries without an
	// explicit target or explicit Ef/NProbe resolve against the tuned
	// frontier. Zero leaves the collection default unset.
	TargetRecall float64
	// PassSamples caps the samples one pass replays across the ladder;
	// each costs one index probe per rung on top of its exact scan
	// (default 16). Successive passes take successive slices of the
	// reservoir.
	PassSamples int
	// Reselect lets the pass rebuild the index when it detects drift no
	// parameter can fix: an unindexed collection grown past the
	// scan/graph crossover, a recall target the whole frontier cannot
	// reach, or a heavily-filtered highly-selective workload on a graph
	// index. Rebuilds run on the background builder and install
	// atomically; queries never block on them. Off by default.
	Reselect bool
}

func (cfg RecallConfig) normalized() RecallConfig {
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = tuner.DefaultMinSamples
	}
	if cfg.PassSamples <= 0 {
		cfg.PassSamples = 16
	}
	return cfg
}

// RecallReport is the result of one recall pass.
type RecallReport struct {
	Collection string  `json:"collection"`
	Outcome    string  `json:"outcome"` // ok, regression, empty, error
	Samples    int     `json:"samples"` // scored (non-stale) samples
	Stale      int     `json:"stale"`   // skipped: served rows deleted or updated since
	Recall     float64 `json:"recall"`  // mean recall@k; meaningful when Outcome is ok or regression
	Floor      float64 `json:"floor"`
	// Replayed is how many of the scored samples were also replayed
	// across the ladder; 0 when no index serves.
	Replayed int     `json:"replayed"`
	Kind     string  `json:"kind"`   // index kind the pass tuned ("" = none)
	Knob     string  `json:"knob"`   // "ef" or "nprobe"
	Target   float64 `json:"target"` // effective target recall (0 = none)
	// Resolved is the parameter the frontier resolves for the pass's
	// dominant k at the target (only meaningful when Target > 0).
	Resolved int  `json:"resolved"`
	Trusted  bool `json:"trusted"` // Resolved came from a trusted rung
	// BestRecall is the best trusted recall on the frontier at the
	// dominant k — the "tuning exhausted" signal when below Target.
	BestRecall float64 `json:"best_recall"`
	// Drift is the re-selection decision this pass proposed or fired
	// ("" when none): build_graph, strengthen, partition.
	Drift      string        `json:"drift,omitempty"`
	DriftFired bool          `json:"drift_fired,omitempty"`
	Elapsed    time.Duration `json:"elapsed_ns"`
}

// SetTargetRecall sets (or, with 0, clears) the collection's default
// recall target. Safe while searches run; takes effect on the next
// query.
func (c *Collection) SetTargetRecall(target float64) {
	if target < 0 || target > 1 {
		target = 0
	}
	c.targetRecall.Store(math.Float64bits(target))
}

// TargetRecall reports the collection's default recall target (0 =
// none).
func (c *Collection) TargetRecall() float64 {
	return math.Float64frombits(c.targetRecall.Load())
}

// EnableRecall turns on query sampling and (when cfg.Interval > 0) the
// background recall loop. Calling it again reconfigures: the old loop
// is stopped before the new one starts. Safe while searches run.
func (c *Collection) EnableRecall(cfg RecallConfig) {
	cfg = cfg.normalized()
	c.recallLife.Lock()
	defer c.recallLife.Unlock()
	c.stopRecallLoop()
	if cfg.ReservoirSize > 0 && cfg.ReservoirSize != c.sampler.Load().Cap() {
		c.sampler.Store(stats.NewReservoir(cfg.ReservoirSize))
	}
	c.recallCfg = cfg
	c.sampling.Store(true)
	if cfg.TargetRecall > 0 {
		c.SetTargetRecall(cfg.TargetRecall)
	}
	if cfg.Interval > 0 {
		stop, done := make(chan struct{}), make(chan struct{})
		c.recallStop, c.recallDone = stop, done
		go c.recallLoop(cfg, stop, done)
	}
}

// DisableRecall stops the background loop and query sampling. The
// reservoir and the frontier keep their contents: queries with a
// target keep resolving against the last published state, and
// RecallNow still replays what was sampled.
func (c *Collection) DisableRecall() {
	c.recallLife.Lock()
	defer c.recallLife.Unlock()
	c.sampling.Store(false)
	c.stopRecallLoop()
}

// stopRecallLoop stops the background loop and waits for it to exit.
// The caller holds recallLife, which the loop never takes, and must
// NOT hold tuneMu: a pass in flight takes tuneMu in frontierFor and
// maybeReselect, so waiting for it under tuneMu would deadlock — the
// hang TestTuneReconfigureDuringPass pins.
func (c *Collection) stopRecallLoop() {
	if c.recallStop != nil {
		close(c.recallStop)
		<-c.recallDone
		c.recallStop, c.recallDone = nil, nil
	}
}

func (c *Collection) recallLoop(cfg RecallConfig, stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			// The pass counts the outcome (including "error") in metrics;
			// log the cause so a persistently failing loop leaves an
			// operational trail. The next tick retries.
			if _, err := c.recallPass(cfg); err != nil {
				log.Printf("vdbms: recall pass on %q failed: %v", c.name, err)
			}
		case <-stop:
			return
		}
	}
}

// RecallNow runs one pass synchronously with the current configuration
// and returns its report. It never blocks writers or searches: the
// replays run on a snapshot pinned at entry.
func (c *Collection) RecallNow() (RecallReport, error) {
	c.recallLife.Lock()
	cfg := c.recallCfg
	c.recallLife.Unlock()
	return c.recallPass(cfg.normalized())
}

// frontierFor returns (creating if needed) the frontier for an index
// kind tuning knob and publishes it as the current one for lock-free
// resolution.
func (c *Collection) frontierFor(kind string, knob tuner.Knob, minSamples int) *tuner.Frontier {
	c.tuneMu.Lock()
	defer c.tuneMu.Unlock()
	if c.frontiers == nil {
		c.frontiers = map[string]*tuner.Frontier{}
	}
	fr := c.frontiers[kind]
	if fr == nil {
		fr = tuner.New(kind, knob, tuner.Config{MinSamples: minSamples})
		c.frontiers[kind] = fr
	}
	c.curFrontier.Store(fr)
	return fr
}

// resetFrontier discards the accumulated frontier for an index kind —
// called after an install changes the index under that kind (a
// re-selection or CreateIndex), since recall estimates measured
// against the old structure no longer describe the new one. Must not
// be called while holding mu (lock order: tuneMu and mu are never
// held together).
func (c *Collection) resetFrontier(kind string) {
	c.tuneMu.Lock()
	defer c.tuneMu.Unlock()
	if c.frontiers != nil {
		delete(c.frontiers, kind)
	}
	if fr := c.curFrontier.Load(); fr != nil && fr.Kind() == kind {
		c.curFrontier.Store(nil)
	}
}

// ladderStart returns where this pass's ladder subset starts in a
// reservoir snapshot of n samples, and moves the cursor step samples
// on, so successive passes replay successive slices of the reservoir
// instead of the same first few slots.
func (c *Collection) ladderStart(n, step int) int {
	if n == 0 {
		return 0
	}
	c.tuneMu.Lock()
	defer c.tuneMu.Unlock()
	start := c.ladderCursor % n
	c.ladderCursor = (start + step) % n
	return start
}

// exactGroundTruth is the pass's exact scan, one per scored sample; a
// variable so tests can count the scans.
var exactGroundTruth = (*executor.Env).ExactGroundTruth

// prefixMask hides, besides the snapshot's deletions, every row
// appended after a sample was served: the rows [rows, total).
func prefixMask(deleted *bitset.Bitset, rows, total int) *bitset.Bitset {
	if rows >= total {
		return deleted
	}
	m := bitset.New(total)
	if deleted != nil {
		copy(m.Words(), deleted.Words())
	}
	for i := rows; i < total; i++ {
		m.Set(i)
	}
	return m
}

// rungAgg accumulates one pass's replays at a single ladder rung.
type rungAgg struct {
	recallSum float64
	compsSum  float64
	n         int
}

func (c *Collection) recallPass(cfg RecallConfig) (RecallReport, error) {
	start := time.Now()
	rep := RecallReport{Collection: c.name, Floor: cfg.RecallFloor, Target: c.TargetRecall()}
	fail := func(err error) (RecallReport, error) {
		rep.Outcome = "error"
		obs.RecallAudits.With("error").Inc()
		return rep, err
	}
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

	// Serving is exact when no index is installed: there is no ladder
	// to replay.
	var fr *tuner.Frontier
	var ladder []int
	var knob tuner.Knob
	if s.env.ANN != nil {
		fr = c.frontierFor(s.annKind, s.annKnob, cfg.MinSamples)
		knob = fr.Knob()
		ladder = tuner.Ladder(knob)
		rep.Kind, rep.Knob = s.annKind, knob.String()
	}

	var sum float64
	aggs := map[int][]rungAgg{} // k -> per-rung aggregates
	kCount := map[int]int{}     // k -> replayed samples (dominant-k vote)
	first := c.ladderStart(len(samples), cfg.PassSamples)
	for j := range samples {
		sm := samples[(first+j)%len(samples)]
		if sm.K <= 0 || len(sm.Vector) == 0 {
			continue
		}
		rows := sm.Rows
		if rows <= 0 {
			rows = s.rows
		}
		// Served before the last in-place vector update, or served rows
		// deleted since: replaying would measure churn, not the index.
		if sm.Epoch < epoch {
			rep.Stale++
			continue
		}
		stale := false
		served := make([]int64, len(sm.Served))
		for i, id := range sm.Served {
			row, err := liveRow(s.ids, s.rows, s.nextID, deleted, id)
			if err != nil || row >= rows {
				stale = true
				break
			}
			served[i] = int64(row)
		}
		if stale {
			rep.Stale++
			continue
		}
		hidden := prefixMask(deleted, rows, s.rows)
		truth, err := exactGroundTruth(s.env, sm.Vector, sm.K, sm.Preds, hidden)
		if err != nil {
			return fail(fmt.Errorf("core: recall ground truth: %w", err))
		}
		if len(truth) == 0 {
			continue // predicate admits nothing now; recall undefined
		}
		truthSet := make(map[int64]struct{}, len(truth))
		for _, r := range truth {
			truthSet[r.ID] = struct{}{}
		}
		denom := float64(min(sm.K, len(truth))) // fewer than k rows may satisfy the query
		hits := 0
		for _, row := range served {
			if _, ok := truthSet[row]; ok {
				hits++
			}
		}
		sum += float64(hits) / denom
		rep.Samples++

		if fr == nil || rep.Replayed >= cfg.PassSamples {
			continue
		}
		agg := aggs[sm.K]
		if agg == nil {
			agg = make([]rungAgg, len(ladder))
			aggs[sm.K] = agg
		}
		for ri, param := range ladder {
			ef, nprobe := param, 0
			if knob == tuner.KnobNProbe {
				ef, nprobe = 0, param
			}
			res, st, err := s.env.ReplayANN(sm.Vector, sm.K, ef, nprobe, sm.Preds, hidden)
			if err != nil {
				return fail(fmt.Errorf("core: recall replay %s=%d: %w", knob, param, err))
			}
			hits = 0
			for _, r := range res {
				if _, ok := truthSet[r.ID]; ok {
					hits++
				}
			}
			agg[ri].recallSum += float64(hits) / denom
			agg[ri].compsSum += float64(st.DistanceComps)
			agg[ri].n++
		}
		rep.Replayed++
		kCount[sm.K]++
	}

	obs.RecallAuditSamples.Add(int64(rep.Samples))
	rep.Outcome = "empty"
	if rep.Samples >= cfg.MinSamples {
		rep.Recall = sum / float64(rep.Samples)
		obs.RecallObserved.With(c.name).Set(rep.Recall)
		rep.Outcome = "ok"
		if cfg.RecallFloor > 0 && rep.Recall < cfg.RecallFloor {
			rep.Outcome = "regression"
			log.Printf("vdbms: recall regression on %q: observed recall@k %.4f below floor %.4f (%d samples)",
				c.name, rep.Recall, cfg.RecallFloor, rep.Samples)
		}
	}
	obs.RecallAudits.With(rep.Outcome).Inc()

	domK := c.foldFrontier(&rep, fr, ladder, aggs, kCount)
	// With an index but nothing replayed there is no fresh frontier
	// evidence to judge it by; with no index, drift needs none.
	if fr == nil || rep.Replayed > 0 {
		c.maybeReselect(cfg, &rep, s, fr, domK)
	}
	rep.Elapsed = time.Since(start)
	obs.RecallAuditSeconds.Observe(rep.Elapsed.Seconds())
	return rep, nil
}

// foldFrontier folds one pass's ladder aggregates into the frontier
// (one Observe per distinct k; buckets merge internally), then reports
// and exports its state at the pass's dominant k, which it returns.
func (c *Collection) foldFrontier(rep *RecallReport, fr *tuner.Frontier, ladder []int, aggs map[int][]rungAgg, kCount map[int]int) int {
	if rep.Replayed == 0 {
		return 0
	}
	for k, agg := range aggs {
		observations := make([]tuner.Observation, 0, len(agg))
		for ri, a := range agg {
			if a.n == 0 {
				continue
			}
			observations = append(observations, tuner.Observation{
				Param:   ladder[ri],
				Recall:  a.recallSum / float64(a.n),
				Comps:   a.compsSum / float64(a.n),
				Samples: a.n,
			})
		}
		fr.Observe(k, observations)
	}
	domK, domN := 0, 0
	for k, n := range kCount {
		if n > domN || (n == domN && k < domK) {
			domK, domN = k, n
		}
	}
	rep.BestRecall, _ = fr.BestRecall(domK)
	obs.TuneFrontierRecall.With(c.name).Set(rep.BestRecall)
	if rep.Target > 0 {
		rep.Resolved, rep.Trusted = fr.Resolve(rep.Target, domK)
		obs.TuneResolvedParam.With(c.name).Set(float64(rep.Resolved))
	}
	return domK
}

// graphCrossover is the live-row count past which a graph index is
// worth building on an unindexed collection: well above the executor's
// small-survivor exact-scan cutoff, and roughly where one brute-force
// scan costs more than an hnsw probe at the ladder maximum.
const graphCrossover = 4096

// Reselect debouncing: a drift decision must repeat on driftHold
// consecutive passes to fire, and after firing no decision is
// considered for driftCooldownPasses passes (the rebuilt index needs
// fresh frontier data before it can be judged).
const (
	driftHold           = 2
	driftCooldownPasses = 5
)

// driftDecision derives this pass's re-selection proposal (decision
// name + recipe), or "" when the current index fits the observed
// workload. Pure observation — debouncing and execution happen in
// maybeReselect.
func (c *Collection) driftDecision(s *snapshot, fr *tuner.Frontier, domK int, target float64) (string, string, map[string]int) {
	live := s.rows - s.nDel
	// No index at all on a collection past the crossover: exact scans
	// are paying N comps per query where a graph would pay a few
	// hundred.
	if s.annKind == "" {
		if live >= graphCrossover {
			return "build_graph", "hnsw", nil
		}
		return "", "", nil
	}
	if fr == nil {
		return "", "", nil
	}
	// Tuning exhausted: even the most expensive trusted rung cannot
	// reach the target, so no parameter change will — the index itself
	// is too weak (built too small, or the wrong family for the data).
	if target > 0 {
		if best, ok := fr.BestRecall(domK); ok && best < target {
			if kind, opts := strengthenRecipe(s.annKind, s.annOpts); kind != "" {
				return "strengthen", kind, opts
			}
		}
	}
	// Workload shift: nearly every query filters, and the predicates
	// are highly selective — the regime where partition-first indexes
	// (bitmap-driven IVF probes) beat graph traversal, which degrades
	// under heavy blocking (Section 2.3(1)).
	if s.annKnob == tuner.KnobEf && live >= graphCrossover {
		st := c.stats.Snapshot(s.rows, live, c.schema.Dim)
		if st.FilteredFraction >= 0.75 && st.Queries >= 64 {
			var selSum float64
			var selN int
			for _, h := range st.Selectivity {
				if h.Count >= 16 {
					selSum += h.Mean
					selN++
				}
			}
			if selN > 0 && selSum/float64(selN) <= 0.05 {
				return "partition", "ivfflat", nil
			}
		}
	}
	return "", "", nil
}

// strengthenRecipe proposes a stronger index for a recall ceiling:
// graph families double their construction budget (capped); anything
// else moves to a default hnsw, the highest-recall family here.
// Returns "" when the current recipe is already at the cap (rebuilding
// the same thing would loop).
func strengthenRecipe(kind string, opts map[string]int) (string, map[string]int) {
	if kind != "hnsw" {
		return "hnsw", nil
	}
	m := hnsw.DefaultM
	if v := opts["m"]; v > 0 {
		m = v
	}
	efc := hnsw.DefaultEfConstruct(m)
	if v := opts["efc"]; v > 0 {
		efc = v
	}
	if m >= 64 && efc >= 1024 {
		return "", nil
	}
	next := map[string]int{}
	for k, v := range opts {
		next[k] = v
	}
	if m < 64 {
		m = min(m*2, 64)
	}
	if efc < 1024 {
		efc = min(efc*2, 1024)
	}
	next["m"], next["efc"] = m, efc
	return "hnsw", next
}

// maybeReselect runs the drift detector and, when a decision survives
// the debounce and cooldown, hands the recipe to the background
// builder. Takes tuneMu (debounce state) and then mu (builder
// handoff) strictly in sequence, never nested.
func (c *Collection) maybeReselect(cfg RecallConfig, rep *RecallReport, s *snapshot, fr *tuner.Frontier, domK int) {
	if !cfg.Reselect {
		return
	}
	decision, kind, opts := c.driftDecision(s, fr, domK, rep.Target)
	rep.Drift = decision

	c.tuneMu.Lock()
	if c.driftCooldown > 0 {
		c.driftCooldown--
		c.tuneMu.Unlock()
		return
	}
	if decision == "" || decision != c.lastDrift {
		c.lastDrift, c.driftStreak = decision, 0
		if decision != "" {
			c.driftStreak = 1
		}
		c.tuneMu.Unlock()
		return
	}
	c.driftStreak++
	if c.driftStreak < driftHold {
		c.tuneMu.Unlock()
		return
	}
	// Fires: reset the debounce and start the cooldown before
	// releasing tuneMu, so a racing pass cannot double-fire.
	c.lastDrift, c.driftStreak = "", 0
	c.driftCooldown = driftCooldownPasses
	c.tuneMu.Unlock()

	rep.DriftFired = c.swapIndex(decision, kind, opts)
}

// swapIndex records a drift-proposed recipe and starts the background
// builder on it; the builder installs it, logs it to the WAL, and
// reverts it if the build fails (runBuild). Returns false when the
// build could not start (builder busy, recipe unchanged, empty or
// closed collection).
func (c *Collection) swapIndex(decision, kind string, opts map[string]int) bool {
	opts, err := index.MergeQuantDefaults(kind, opts, c.schema.Quantization, c.schema.RerankK)
	if err != nil {
		return false
	}
	c.mu.Lock()
	if c.closed || c.replaying || c.build != nil || c.n == 0 || (kind == c.annKind && maps.Equal(opts, c.annOpts)) {
		c.mu.Unlock()
		return false
	}
	prevKind := c.annKind
	c.changeRecipeLocked(kind, opts)
	c.mu.Unlock()

	obs.PlanReselects.With(decision).Inc()
	log.Printf("vdbms: index re-selection on %q: %s -> %s %v (was %s)", c.name, decision, kind, opts, prevKind)
	return true
}
