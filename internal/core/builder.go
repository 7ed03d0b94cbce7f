package core

import (
	"maps"
	"time"

	"vdbms/internal/index"
	"vdbms/internal/obs"
	"vdbms/internal/vec"
	"vdbms/internal/wal"
)

// Background index maintenance. The engine used to rebuild a stale
// index inline on the next search, stalling that query — and, under
// the old collection-wide lock, every other one — for the full build.
// Builds now run on a single-flight background goroutine per
// collection: a write that pushes staleness over the schema threshold
// starts the builder, the builder pins the current data prefix (safe
// off-lock: inserts append and updates copy-on-write), builds without
// holding any lock, and installs the result atomically. An install is
// discarded when CreateIndex or DropIndex changed the recipe mid-build
// (the epoch check below); writes that landed during the build keep
// their staleness, so the builder immediately re-evaluates the
// threshold and chains a catch-up build when needed. Nothing on the
// query path ever waits: a search that arrives mid-build simply uses
// the snapshot's previous index (or an exact scan). The recall loop's
// drift re-selection runs on the same goroutine body with a new recipe
// (swapIndex).

// buildTimed runs one index build with duration metrics.
func buildTimed(kind string, data []float32, n, dim int, metric vec.Metric, opts map[string]int) (index.Index, error) {
	start := time.Now()
	idx, err := index.Build(kind, data, n, dim, metric, opts)
	secs := time.Since(start).Seconds()
	obs.IndexBuildSeconds.Observe(secs)
	obs.IndexBuildLastSecs.Set(secs)
	return idx, err
}

// maybeTriggerBuildLocked starts a background rebuild when the
// mutation fraction exceeds the schema threshold, or when the recipe
// has no index because a Compact dropped it. Called with mu held from
// every write path, from Compact and from build completion (catch-up).
// Single-flight: at most one builder goroutine per collection.
func (c *Collection) maybeTriggerBuildLocked() {
	// During WAL replay the index is built once at the end of
	// recovery; kicking builders per replayed record would race the
	// replay loop for no benefit.
	if c.replaying || c.annKind == "" || c.building || c.n == 0 {
		return
	}
	if c.ann == nil {
		// CreateIndex is building the recipe's first index (it pins
		// the column until it installs), or an eviction pins it and
		// re-checks on release.
		if c.dataPins > 0 {
			return
		}
	} else if grown := c.n - c.annN; float64(c.dirty+grown) <= c.schema.RebuildFraction*float64(c.annN) {
		return
	}
	c.startBuildLocked(c.annKind, c.annOpts)
}

// startBuildLocked starts the builder goroutine on the recorded recipe
// (annKind/annOpts) over the current data prefix. prevKind/prevOpts
// name the recipe the build replaces: the same one for a staleness
// rebuild, the swapped-out one for a drift re-selection. Caller holds
// mu and has checked that no build is in flight.
func (c *Collection) startBuildLocked(prevKind string, prevOpts map[string]int) {
	c.building = true
	c.buildDone = make(chan struct{})
	obs.IndexBuildState.With(c.name).Set(1)
	go c.runBuild(c.buildEpoch, c.annKind, c.annOpts, prevKind, prevOpts, c.data[:c.n*c.schema.Dim], c.n, c.dirty)
}

// runBuild is the builder goroutine body. Its inputs were pinned under
// mu by startBuildLocked; the data prefix stays immutable while the
// build runs because inserts only append past it and updates fall
// back to copy-on-write whenever a build is in flight (tryPatchLocked
// refuses to patch while c.building is set). A build that changes the
// recipe is a CreateIndex in all but its caller: it logs the recipe to
// the WAL on install (so recovery rebuilds it) and reverts it on
// failure (so the next staleness rebuild targets what is installed).
func (c *Collection) runBuild(epoch uint64, kind string, opts map[string]int, prevKind string, prevOpts map[string]int, data []float32, n, dirty int) {
	idx, err := buildTimed(kind, data, n, c.schema.Dim, c.schema.Metric, opts)
	swap := kind != prevKind || !maps.Equal(opts, prevOpts)

	c.mu.Lock()
	c.building = false
	close(c.buildDone)
	obs.IndexBuildState.With(c.name).Set(0)
	switch {
	case err != nil:
		// Leave the old index standing. Deliberately not re-triggered
		// here — a deterministic failure would spin hot; the next write
		// re-evaluates the threshold and retries instead.
		obs.IndexBuildsTotal.With("failed").Inc()
		if swap && c.buildEpoch == epoch {
			c.annKind, c.annOpts = prevKind, prevOpts
		}
		c.mu.Unlock()
		return
	case epoch != c.buildEpoch:
		// CreateIndex/DropIndex changed the recipe mid-build; discard
		// the result but re-check staleness against the new recipe.
		obs.IndexBuildsTotal.With("stale").Inc()
		c.maybeTriggerBuildLocked()
		c.mu.Unlock()
		return
	}
	c.installLocked(idx, n, dirty)
	obs.IndexBuildsTotal.With("installed").Inc()
	var commit wal.Commit
	if swap {
		commit, _ = c.logLocked(func() []byte { return encodeCreateIndex(kind, opts) })
	}
	c.publishLocked()
	// Writes that landed during the build may already exceed the
	// threshold again; chain the next build without waiting for
	// another write.
	c.maybeTriggerBuildLocked()
	c.mu.Unlock()
	if swap {
		// The old kind's frontier no longer describes the serving index.
		c.resetFrontier(prevKind)
		c.resetFrontier(kind)
		// A commit failure surfaces on the next mutation (sticky WAL
		// error); the swap itself stands.
		commit.Wait()
	}
}

// WaitForIndex blocks until no background index build is in flight,
// including catch-up builds chained by the builder itself. It is a
// convenience for tests, benchmarks, and shutdown paths; queries never
// need it.
func (c *Collection) WaitForIndex() {
	for {
		c.mu.Lock()
		if !c.building {
			c.mu.Unlock()
			return
		}
		done := c.buildDone
		c.mu.Unlock()
		<-done
	}
}

// IndexStatus reports the index family, coverage, staleness, and
// whether a background build is currently running — IndexInfo plus the
// builder state, for operational surfaces (/debug/stats, healthz).
func (c *Collection) IndexStatus() (kind string, covered, dirty int, building bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.annKind, c.annN, c.dirty, c.building
}
