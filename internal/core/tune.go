// Recall-SLO auto-tuning and drift-driven index re-selection: the
// feedback loop that turns the observability built by the stats layer
// and the recall auditor into an optimizer. A background tuner
// periodically replays the collection's query reservoir — the same
// samples the auditor uses — against exact ground truth AND against
// the ANN index at every rung of a parameter ladder (ef for
// graph/tree families, nprobe for partition families), maintaining a
// per-(index kind, k-bucket) recall-vs-cost frontier
// (internal/tuner). A query carrying a target recall then resolves to
// the cheapest parameter the frontier proves meets it
// (Collection.resolveKnobs), with the ladder maximum as the safe
// default while the frontier is cold and hysteresis against
// oscillation.
//
// The same pass watches for drift no parameter can fix: a collection
// grown past the exact-scan/graph crossover with no index at all, a
// frontier whose best rung cannot reach the target (the index itself
// is too weak), or a workload turned highly-filtered-and-selective
// where a partition index beats a graph. Each condition proposes a
// new index recipe; after the decision repeats on consecutive passes
// (debounce) and outside the post-fire cooldown, the recipe is handed
// to the single-flight background builder for an epoch-guarded,
// non-blocking swap — exactly the CreateIndex install path, so
// queries never wait and a superseding CreateIndex/DropIndex
// invalidates the swap.
//
// Everything here runs off the query path: passes pin a snapshot like
// any reader, the frontier publishes through an atomic pointer, and
// the only locks taken are tuneMu (tuner state) and briefly mu (to
// hand a reselect build to the builder). Lock order: never hold
// tuneMu and mu together.
package core

import (
	"fmt"
	"log"
	"math"
	"time"

	"vdbms/internal/index"
	"vdbms/internal/obs"
	"vdbms/internal/stats"
	"vdbms/internal/tuner"
)

// TuneConfig configures a collection's recall-SLO auto-tuner (the
// public API's TuneOptions).
type TuneConfig struct {
	// Interval is the cadence of background tuning passes. Zero runs
	// no background loop — sampling still starts, and TuneNow runs
	// passes on demand.
	Interval time.Duration
	// TargetRecall, in (0,1], becomes the collection's default recall
	// target (same effect as SetTargetRecall): queries without an
	// explicit target or explicit Ef/NProbe resolve against the tuned
	// frontier. Zero leaves the collection default unset.
	TargetRecall float64
	// ReservoirSize caps how many live queries are retained for replay;
	// 0 keeps the current size (default 256). The reservoir is shared
	// with the recall auditor.
	ReservoirSize int
	// PassSamples caps the sampled queries one pass replays; each costs
	// one exact scan plus one index probe per ladder rung (default 16).
	PassSamples int
	// MinSamples is the per-rung replay count before the tuner trusts
	// a measurement (tuner.Config.MinSamples; default 8).
	MinSamples int
	// Margin is the recall headroom required before the tuner moves to
	// a cheaper rung — hysteresis against oscillation
	// (tuner.Config.Margin; default 0.01).
	Margin float64
	// Reselect lets the tuner rebuild the index when it detects drift
	// no parameter can fix: an unindexed collection grown past the
	// scan/graph crossover, a recall target the whole frontier cannot
	// reach, or a heavily-filtered highly-selective workload on a
	// graph index. Rebuilds run on the background builder and install
	// atomically; queries never block on them. Off by default —
	// parameter tuning alone never rebuilds anything.
	Reselect bool
}

func (cfg TuneConfig) normalized() TuneConfig {
	if cfg.PassSamples <= 0 {
		cfg.PassSamples = 16
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = tuner.DefaultMinSamples
	}
	if cfg.Margin <= 0 {
		cfg.Margin = tuner.DefaultMargin
	}
	return cfg
}

// TuneReport is the result of one tuning pass.
type TuneReport struct {
	Collection string  `json:"collection"`
	Outcome    string  `json:"outcome"` // ok, empty, no_index, error
	Samples    int     `json:"samples"` // replayed (non-stale) samples
	Stale      int     `json:"stale"`   // skipped as unreplayable
	Kind       string  `json:"kind"`    // index kind the pass tuned
	Knob       string  `json:"knob"`    // "ef" or "nprobe"
	Target     float64 `json:"target"`  // effective target recall (0 = none)
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

// refreshSampling recomputes the hot-path sampling gate from who
// currently wants reservoir samples.
func (c *Collection) refreshSampling() {
	c.sampling.Store(c.samplingAudit.Load() || c.samplingTune.Load())
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

// SetSearchDefaults sets the collection-level Ef/NProbe defaults used
// when a query carries neither explicit knobs nor a recall target.
// Zeros clear them (the index's built-in defaults then apply).
func (c *Collection) SetSearchDefaults(ef, nprobe int) {
	if ef < 0 {
		ef = 0
	}
	if nprobe < 0 {
		nprobe = 0
	}
	c.defEf.Store(int64(ef))
	c.defNProbe.Store(int64(nprobe))
}

// SearchDefaults reports the collection-level Ef/NProbe defaults.
func (c *Collection) SearchDefaults() (ef, nprobe int) {
	return int(c.defEf.Load()), int(c.defNProbe.Load())
}

// EnableTune turns on query sampling and (when cfg.Interval > 0) the
// background tuning loop. Calling it again reconfigures: the old loop
// is stopped before the new one starts. Safe while searches run.
func (c *Collection) EnableTune(cfg TuneConfig) {
	cfg = cfg.normalized()
	c.tuneLife.Lock()
	defer c.tuneLife.Unlock()
	c.stopTuneLoop()
	c.tuneMu.Lock()
	if cfg.ReservoirSize > 0 && cfg.ReservoirSize != c.sampler.Load().Cap() {
		c.sampler.Store(stats.NewReservoir(cfg.ReservoirSize))
	}
	c.tuneCfg = cfg
	c.tuneMu.Unlock()
	c.samplingTune.Store(true)
	c.refreshSampling()
	if cfg.TargetRecall > 0 {
		c.SetTargetRecall(cfg.TargetRecall)
	}
	if cfg.Interval > 0 {
		stop, done := make(chan struct{}), make(chan struct{})
		c.tuneStop, c.tuneDone = stop, done
		go c.tuneLoop(cfg, stop, done)
	}
}

// DisableTune stops the background loop and the tuner's interest in
// query sampling (the auditor's interest, if any, keeps sampling on).
// The frontier keeps its contents: queries with a target keep
// resolving against the last published state, and TuneNow still works.
func (c *Collection) DisableTune() {
	c.tuneLife.Lock()
	defer c.tuneLife.Unlock()
	c.samplingTune.Store(false)
	c.refreshSampling()
	c.stopTuneLoop()
}

// stopTuneLoop stops the background loop and waits for it to exit.
// The caller holds tuneLife (which owns tuneStop/tuneDone and which
// the loop never takes) and must NOT hold tuneMu: a pass in flight
// takes tuneMu in frontierFor and maybeReselect, so waiting for it
// under tuneMu deadlocks — the hang TestTuneReconfigureDuringPass pins.
func (c *Collection) stopTuneLoop() {
	if c.tuneStop != nil {
		close(c.tuneStop)
		<-c.tuneDone
		c.tuneStop, c.tuneDone = nil, nil
	}
}

func (c *Collection) tuneLoop(cfg TuneConfig, stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if _, err := c.tunePass(cfg); err != nil {
				log.Printf("vdbms: tune pass on %q failed: %v", c.name, err)
			}
		case <-stop:
			return
		}
	}
}

// TuneNow runs one tuning pass synchronously with the current
// configuration and returns its report. Like the audit, it never
// blocks writers or searches: replays run on a snapshot pinned at
// entry.
func (c *Collection) TuneNow() (TuneReport, error) {
	c.tuneMu.Lock()
	cfg := c.tuneCfg
	c.tuneMu.Unlock()
	return c.tunePass(cfg.normalized())
}

// frontierFor returns (creating if needed) the frontier for an index
// kind and publishes it as the current one for lock-free resolution.
func (c *Collection) frontierFor(kind string, cfg TuneConfig) *tuner.Frontier {
	c.tuneMu.Lock()
	defer c.tuneMu.Unlock()
	if c.frontiers == nil {
		c.frontiers = map[string]*tuner.Frontier{}
	}
	fr := c.frontiers[kind]
	if fr == nil {
		fr = tuner.New(kind, tuner.Config{MinSamples: cfg.MinSamples, Margin: cfg.Margin})
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

// rungAgg accumulates one pass's replays at a single ladder rung.
type rungAgg struct {
	recallSum float64
	compsSum  float64
	n         int
}

func (c *Collection) tunePass(cfg TuneConfig) (TuneReport, error) {
	start := time.Now()
	rep := TuneReport{Collection: c.name, Target: c.TargetRecall()}
	samples := c.sampler.Load().Snapshot()
	// Pin as a reader for the whole pass: exact replays scan the
	// snapshot's column (same fencing as the recall audit).
	c.beginRead()
	defer c.endRead()
	s := c.snap.Load()
	epoch := c.updateEpoch.Load()
	deleted := s.deleted()

	if s.env.ANN == nil {
		// Serving is exact (no index, or one bypassed as stale):
		// recall is 1 by construction, there is nothing to tune — but
		// a large collection with no index at all is itself drift.
		rep.Outcome = "no_index"
		obs.TunePasses.With("no_index").Inc()
		rep.Elapsed = time.Since(start)
		obs.TuneSeconds.Observe(rep.Elapsed.Seconds())
		c.maybeReselect(cfg, &rep, s, nil, 0)
		return rep, nil
	}

	kind := s.annKind
	fr := c.frontierFor(kind, cfg)
	knob := fr.Knob()
	rep.Kind, rep.Knob = kind, knob.String()
	ladder := tuner.Ladder(knob)

	// Replay each usable sample once against exact ground truth, then
	// once per ladder rung against the ANN index, aggregating recall
	// and probe cost per (k, rung).
	aggs := map[int][]rungAgg{} // k -> per-rung aggregates
	kCount := map[int]int{}     // k -> replayed samples (dominant-k vote)
	for _, sm := range samples {
		if rep.Samples >= cfg.PassSamples {
			break
		}
		if sm.K <= 0 || len(sm.Vector) == 0 {
			continue
		}
		// Staleness rules shared with the audit: a sample served
		// before the last in-place update, or whose served rows have
		// since been deleted, would measure churn, not the index.
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
			obs.TunePasses.With("error").Inc()
			return rep, fmt.Errorf("core: tune ground truth: %w", err)
		}
		if len(truth) == 0 {
			continue // predicate admits nothing now; recall undefined
		}
		truthSet := make(map[int64]struct{}, len(truth))
		for _, r := range truth {
			truthSet[r.ID] = struct{}{}
		}
		denom := sm.K
		if len(truth) < denom {
			denom = len(truth)
		}
		agg := aggs[sm.K]
		if agg == nil {
			agg = make([]rungAgg, len(ladder))
			aggs[sm.K] = agg
		}
		for ri, param := range ladder {
			ef, nprobe := 0, 0
			if knob == tuner.KnobNProbe {
				nprobe = param
			} else {
				ef = param
			}
			res, st, err := s.env.ReplayANN(sm.Vector, sm.K, ef, nprobe, sm.Preds, deleted)
			if err != nil {
				rep.Outcome = "error"
				obs.TunePasses.With("error").Inc()
				return rep, fmt.Errorf("core: tune replay %s=%d: %w", knob, param, err)
			}
			hits := 0
			for _, r := range res {
				if _, ok := truthSet[r.ID]; ok {
					hits++
				}
			}
			agg[ri].recallSum += float64(hits) / float64(denom)
			agg[ri].compsSum += float64(st.DistanceComps)
			agg[ri].n++
		}
		rep.Samples++
		kCount[sm.K]++
	}

	rep.Elapsed = time.Since(start)
	obs.TuneSeconds.Observe(rep.Elapsed.Seconds())
	obs.TuneSamples.Add(int64(rep.Samples))
	if rep.Samples == 0 {
		rep.Outcome = "empty"
		obs.TunePasses.With("empty").Inc()
		return rep, nil
	}

	// Fold the aggregates into the frontier (one Observe per distinct
	// k; buckets merge internally) and publish.
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

	// Report + export against the dominant k of this pass.
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
	rep.Outcome = "ok"
	obs.TunePasses.With("ok").Inc()

	c.maybeReselect(cfg, &rep, s, fr, domK)
	return rep, nil
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
	if tuner.KnobFor(s.annKind) == tuner.KnobEf && live >= graphCrossover {
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
	m, efc := 16, 200 // hnsw construction defaults
	if v, ok := opts["m"]; ok && v > 0 {
		m = v
	}
	if v, ok := opts["efc"]; ok && v > 0 {
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
		m *= 2
		if m > 64 {
			m = 64
		}
	}
	if efc < 1024 {
		efc *= 2
		if efc > 1024 {
			efc = 1024
		}
	}
	next["m"], next["efc"] = m, efc
	return "hnsw", next
}

// maybeReselect runs the drift detector and, when a decision survives
// the debounce and cooldown, hands the recipe to the background
// builder. Takes tuneMu (debounce state) and then mu (builder
// handoff) strictly in sequence, never nested.
func (c *Collection) maybeReselect(cfg TuneConfig, rep *TuneReport, s *snapshot, fr *tuner.Frontier, domK int) {
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

	if c.requestReselect(decision, kind, opts) {
		rep.DriftFired = true
	}
}

// requestReselect hands a drift-proposed recipe to the background
// builder: the same pin/build/epoch-guarded-install/revert protocol as
// CreateIndex, minus the synchronous wait. Returns false when the
// build could not start (builder busy, recipe unchanged, empty or
// closed collection).
func (c *Collection) requestReselect(decision, kind string, opts map[string]int) bool {
	opts, err := index.MergeQuantDefaults(kind, opts, c.schema.Quantization, c.schema.RerankK)
	if err != nil {
		return false
	}
	c.mu.Lock()
	if c.closed || c.replaying || c.building || c.n == 0 {
		c.mu.Unlock()
		return false
	}
	if kind == c.annKind && sameOpts(opts, c.annOpts) {
		c.mu.Unlock()
		return false
	}
	c.buildEpoch++
	epoch := c.buildEpoch
	prevKind, prevOpts := c.annKind, c.annOpts
	c.annKind, c.annOpts = kind, opts
	data, n, dirty := c.data[:c.n*c.schema.Dim], c.n, c.dirty
	// Pin the column by reference for the off-lock build, and mark the
	// builder busy so staleness-triggered rebuilds stay single-flight
	// with the swap.
	c.dataPins++
	c.building = true
	c.buildDone = make(chan struct{})
	obs.IndexBuildState.With(c.name).Set(1)
	c.mu.Unlock()

	obs.PlanReselects.With(decision).Inc()
	log.Printf("vdbms: index re-selection on %q: %s -> %s %v (was %s)", c.name, decision, kind, opts, prevKind)
	go c.runReselect(epoch, kind, opts, prevKind, prevOpts, data, n, dirty)
	return true
}

func sameOpts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// runReselect is the re-selection builder goroutine: build off-lock,
// install under the epoch guard, log the new recipe to the WAL (so
// recovery rebuilds the reselected index, exactly like CreateIndex),
// and revert the recipe on failure. Queries never wait — they keep
// using the previous snapshot's index until the new one is published.
func (c *Collection) runReselect(epoch uint64, kind string, opts map[string]int, prevKind string, prevOpts map[string]int, data []float32, n, dirty int) {
	idx, err := buildTimed(kind, data, n, c.schema.Dim, c.schema.Metric, opts)

	c.mu.Lock()
	c.dataPins--
	c.building = false
	close(c.buildDone)
	obs.IndexBuildState.With(c.name).Set(0)
	switch {
	case err != nil:
		obs.IndexBuildsTotal.With("failed").Inc()
		if c.buildEpoch == epoch {
			// Nothing superseded the swap: restore the recipe so the
			// next staleness rebuild targets what is actually installed.
			c.annKind, c.annOpts = prevKind, prevOpts
		}
		c.mu.Unlock()
		return
	case epoch != c.buildEpoch:
		// CreateIndex/DropIndex superseded the swap mid-build.
		obs.IndexBuildsTotal.With("stale").Inc()
		c.maybeTriggerBuildLocked()
		c.mu.Unlock()
		return
	}
	c.installLocked(idx, n, dirty)
	obs.IndexBuildsTotal.With("installed").Inc()
	commit, _ := c.logLocked(func() []byte { return encodeCreateIndex(kind, opts) })
	c.publishLocked()
	c.maybeTriggerBuildLocked()
	c.mu.Unlock()
	// The old kind's frontier no longer describes the serving index.
	c.resetFrontier(prevKind)
	c.resetFrontier(kind)
	// A commit failure surfaces on the next mutation (sticky WAL
	// error); the swap itself stands.
	commit.Wait()
}
