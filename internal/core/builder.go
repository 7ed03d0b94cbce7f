package core

import (
	"time"

	"vdbms/internal/index"
	"vdbms/internal/obs"
	"vdbms/internal/storage"
	"vdbms/internal/wal"
)

// Background index maintenance. Every index build (CreateIndex, a drift
// swap, a Compact's rebuild, the recipe Load and Recover restore, and
// staleness rebuilds) runs on one single-flight builder goroutine per
// collection. The builder pins the current data prefix (safe off-lock:
// inserts append and updates copy-on-write while a build runs), builds
// without holding any lock, and installs the result atomically. A build
// is discarded when what to build changed mid-build (the epoch check
// below), and the builder then builds the current recipe; writes that
// landed during a build keep their staleness, so after an install the
// builder re-evaluates the threshold and chains a catch-up build. No
// query ever waits: it uses its snapshot's index (or an exact scan).

// buildRun is one background build: the build epoch it started under,
// the column mapping it read (nil for a heap column), and done, closed
// when it has ended.
type buildRun struct {
	epoch   uint64
	updates uint64 // updateEpoch of the column the build read
	mapped  *storage.MmapStore
	done    chan struct{}
}

// recipeChange is a recipe that CreateIndex or a drift swap recorded and
// no build has installed yet. The build that installs it logs it (so
// recovery rebuilds it); one that fails reverts to prevKind/prevOpts.
// Either way err and commit are set and done closes after the frontiers
// are reset; a superseded change's done closes with neither set.
type recipeChange struct {
	prevKind string
	prevOpts map[string]int
	done     chan struct{}
	err      error
	commit   wal.Commit
}

// changeRecipeLocked records kind/opts as the recipe to build, ending
// the change it supersedes, and has the builder build it: a build in
// flight ends stale, and the builder then builds this recipe. Caller
// holds mu and has checked that the collection has rows.
func (c *Collection) changeRecipeLocked(kind string, opts map[string]int) *recipeChange {
	ch := &recipeChange{prevKind: c.annKind, prevOpts: c.annOpts, done: make(chan struct{})}
	if old := c.change; old != nil { // revert to the last installed recipe
		ch.prevKind, ch.prevOpts = old.prevKind, old.prevOpts
	}
	c.endChangeLocked()
	c.change = ch
	c.buildEpoch++
	c.annKind, c.annOpts = kind, opts
	c.maybeTriggerBuildLocked()
	return ch
}

// endChangeLocked ends the pending recipe change, if any, as superseded.
func (c *Collection) endChangeLocked() {
	if c.change != nil {
		close(c.change.done)
		c.change = nil
	}
}

// maybeTriggerBuildLocked starts the builder when a recipe change is
// pending, when the recipe has no index because a Compact dropped it,
// or when the mutation fraction exceeds the schema threshold. Called
// with mu held from every write path, from Compact and from build
// completion (catch-up). Single-flight: at most one build per
// collection.
func (c *Collection) maybeTriggerBuildLocked() {
	// During WAL replay the index is built once at the end of
	// recovery; kicking builders per replayed record would race the
	// replay loop for no benefit.
	if c.replaying || c.build != nil || c.n == 0 {
		return
	}
	stale := c.ann == nil || float64(c.dirty+c.n-c.annN) > c.schema.RebuildFraction*float64(c.annN)
	if c.change == nil && (c.annKind == "" || !stale) {
		return
	}
	run := &buildRun{epoch: c.buildEpoch, updates: c.updateEpoch.Load(), mapped: c.mapped, done: make(chan struct{})}
	c.build = run
	obs.IndexBuildState.With(c.name).Set(1)
	go c.runBuild(run, c.annKind, c.annOpts, c.data[:c.n*c.schema.Dim], c.n, c.dirty)
}

// runBuild is the builder goroutine body. Its inputs were pinned under
// mu by maybeTriggerBuildLocked; the data prefix stays immutable while
// the build runs because inserts only append past it and updates fall
// back to copy-on-write whenever a build is in flight (tryPatchLocked
// refuses to patch while c.build is set).
func (c *Collection) runBuild(run *buildRun, kind string, opts map[string]int, data []float32, n, dirty int) {
	start := time.Now()
	idx, err := index.Build(kind, data, n, c.schema.Dim, c.schema.Metric, opts)
	secs := time.Since(start).Seconds()
	obs.IndexBuildSeconds.Observe(secs)
	obs.IndexBuildLastSecs.Set(secs)

	c.mu.Lock()
	c.build = nil
	close(run.done)
	obs.IndexBuildState.With(c.name).Set(0)
	ch, current := c.change, run.epoch == c.buildEpoch
	switch {
	case !current:
		// What to build changed: the current recipe is built next. A
		// pending change rides on that build or, on a collection
		// compacted to no rows, is logged unbuilt below.
		obs.IndexBuildsTotal.With("stale").Inc()
		if c.n > 0 {
			ch = nil
		}
	case err != nil:
		// Leave the old index standing.
		obs.IndexBuildsTotal.With("failed").Inc()
		if ch != nil {
			c.annKind, c.annOpts = ch.prevKind, ch.prevOpts
			ch.err = err
		}
	default:
		// The epoch matches, so c.annKind is the recipe built and is
		// registered. Mutations that landed during the build stay
		// counted against the new index. When a write retired the
		// mapping the build read, or inserts reallocated the heap column
		// it read and no vector update has landed since, the index is
		// rebound onto the current column, so that the old one can be
		// released.
		fam, _ := index.Lookup(c.annKind)
		c.ann, c.annN, c.annKnob, c.annUpdates = idx, n, fam.Knob, run.updates
		c.dirty = max(c.dirty-dirty, 0)
		moved := c.annCurrentLocked() && len(c.data) > 0 && &data[0] != &c.data[0]
		if (run.mapped != nil && run.mapped != c.mapped) || moved {
			c.rebindLocked()
		}
		c.extendLocked() // the rows inserted while it was built
		obs.IndexBuildsTotal.With("installed").Inc()
	}
	if ch != nil {
		c.change = nil
		if ch.err == nil {
			// Logged only once built, so replay never re-runs a build
			// that failed the first time.
			kind, opts = c.annKind, c.annOpts
			ch.commit, ch.err = c.logLocked(func() []byte { return encodeCreateIndex(kind, opts) })
		}
	}
	c.publishLocked()
	if !current || err == nil {
		// Build the current recipe, or catch up on writes that landed
		// during the build. A failed build is not retried here: a
		// deterministic failure would spin hot; the next write retries.
		c.maybeTriggerBuildLocked()
	}
	c.mu.Unlock()
	if ch == nil {
		return
	}
	if ch.err == nil {
		// Recall measured against whatever previously answered under
		// these kinds no longer describes the new index (mu released
		// first: tuneMu and mu are never held together).
		c.resetFrontier(ch.prevKind)
		c.resetFrontier(kind)
	}
	close(ch.done)
}

// WaitForIndex blocks until no background index build is in flight,
// including catch-up builds chained by the builder itself. It is a
// convenience for tests, benchmarks, and shutdown paths; queries never
// need it.
func (c *Collection) WaitForIndex() {
	for {
		c.mu.Lock()
		run := c.build
		c.mu.Unlock()
		if run == nil {
			return
		}
		<-run.done
	}
}

// IndexStatus reports the index family, coverage, staleness, and
// whether a background build is currently running — IndexInfo plus the
// builder state, for operational surfaces (/debug/stats, healthz).
// covered is the rows served through the index (its Size): the rows it
// was built over plus those an extendable family filed since. The
// rebuild threshold counts from the rows the build trained on, which
// filing does not move.
func (c *Collection) IndexStatus() (kind string, covered, dirty int, building bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ann != nil {
		covered = c.ann.Size()
	}
	return c.annKind, covered, c.dirty, c.build != nil
}
