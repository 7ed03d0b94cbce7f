package core

import (
	"fmt"
	"os"
	"slices"

	"vdbms/internal/index"
	"vdbms/internal/memory"
	"vdbms/internal/storage"
)

// Memory-tiered serving (DESIGN.md §13). A collection attached to the
// process budget manager push-accounts its resident bytes after every
// published epoch and exposes three remediation hooks:
//
//   - drop caches: release the entity-map cache (rung 1),
//   - evict: move the float32 column to an mmap-backed column image and
//     rebind the scorer and (Remappable) index onto the mapping, so
//     the heap copy becomes garbage and the kernel pages vectors in on
//     demand (rung 2; quantized codes stay heap-hot),
//   - promote: copy the column back to heap when pressure clears.
//
// A durable collection maps its checkpoint, as recovery does, so it
// keeps one copy of its column on disk; a non-durable one maps a spill
// file (spillColumn). The eviction protocol never mutates anything a
// published snapshot can see: the column is written from a pinned
// reader window and the swap happens under mu with a staleness
// re-check. A mapping retired by a promotion stays alive while an old
// epoch may still score through it: releaseRetiredLocked unmaps it once
// no build runs and no reader is pinned.

// AttachMemory registers the collection with the budget manager and
// enables tier management. spillDir hosts the (transient, unlinked)
// spill files of a non-durable collection; it is created if missing.
func (c *Collection) AttachMemory(m *memory.Manager, spillDir string) error {
	if spillDir == "" {
		return fmt.Errorf("core: AttachMemory needs a spill directory")
	}
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return err
	}
	a := m.Register(c.name)
	a.OnDropCaches(c.dropCaches)
	a.OnEvict(c.EvictToMmap)
	c.mu.Lock()
	c.spillDir = spillDir
	c.acct.Store(a)
	if c.mapped != nil {
		// Recovered straight into the mmap tier (checkpoint-backed
		// column): tell the manager so it skips the eviction rung.
		a.SetEvicted(true)
	}
	c.accountLocked()
	c.mu.Unlock()
	return nil
}

// touchAccount stamps the account's logical clock — the coldness
// signal the eviction rung sorts by. Called from query paths, off-mu.
func (c *Collection) touchAccount() {
	if a := c.acct.Load(); a != nil {
		a.Touch()
	}
}

// accountLocked pushes the collection's resident bytes to its account.
// Called with mu held from publishLocked, so accounting tracks every
// epoch transition (insert growth, COW clones, evictions, index
// installs) without a sampling loop.
func (c *Collection) accountLocked() {
	a := c.acct.Load()
	if a == nil {
		return
	}
	var vecBytes int64
	if c.mapped == nil {
		vecBytes = int64(cap(c.data)) * 4
	}
	a.Set(memory.CatVectors, vecBytes)
	structure, codes := indexMemoryBytes(c.ann)
	a.Set(memory.CatIndex, structure)
	a.Set(memory.CatQuantCodes, codes)
	if c.wal != nil {
		a.Set(memory.CatWALBuffers, c.wal.log.BufferedBytes())
	}
}

// indexMemoryBytes reports an index's accountable heap bytes; families
// that do not implement index.MemoryFootprint account as zero (their
// data references are still covered by the vectors category).
func indexMemoryBytes(idx index.Index) (structure, codes int64) {
	if idx == nil {
		return 0, 0
	}
	if f, ok := idx.(index.MemoryFootprint); ok {
		return f.MemoryBytes()
	}
	return 0, 0
}

// dropCaches is the DropCaches-rung hook: release per-collection
// derived caches that can be rebuilt on demand.
func (c *Collection) dropCaches() {
	c.entMu.Lock()
	c.entCache = map[string]entityEntry{}
	c.entMu.Unlock()
}

// Tier reports which tier the float column currently occupies.
func (c *Collection) Tier() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mapped != nil {
		return "mmap"
	}
	return "heap"
}

// EvictToMmap moves the float32 column to the mmap tier: a durable
// collection maps its checkpoint's column section, a non-durable one a
// spill file. Search results are byte-identical (the mapping holds
// exactly the bytes the heap column held) but the pages are
// reclaimable by the kernel, so the collection's accounted vector
// bytes drop to zero. Quantized codes, the graph structure, and
// attribute columns stay on heap. Fails (leaving the heap tier intact)
// when the platform lacks mmap, when the installed index cannot rebind
// to a new column, or when a concurrent write lands mid-protocol.
func (c *Collection) EvictToMmap() error {
	if !storage.MmapSupported() {
		return fmt.Errorf("core: mmap tier unsupported on this platform")
	}

	// Phase 1 (under mu): capture the staleness witnesses and pin the
	// column as a reader, which disables in-place patching so the
	// prefix cannot change underneath the file write; COW updates and
	// inserts are caught by the re-check in phase 3.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("core: collection %q is closed", c.name)
	}
	if c.acct.Load() == nil {
		c.mu.Unlock()
		return fmt.Errorf("core: collection %q is not memory-managed", c.name)
	}
	if c.mapped != nil {
		c.mu.Unlock()
		return nil // already in the mmap tier
	}
	if c.n == 0 {
		c.mu.Unlock()
		return fmt.Errorf("core: nothing to evict")
	}
	if c.build != nil {
		c.mu.Unlock()
		return fmt.Errorf("core: index build in flight; retry")
	}
	if _, ok := c.ann.(index.Remappable); c.ann != nil && !ok {
		// A non-remappable index keeps scoring the heap column, so
		// eviction would free nothing. Refuse; the manager moves on.
		c.mu.Unlock()
		return fmt.Errorf("core: index %q pins the heap column", c.ann.Name())
	}
	n, d, dir := c.n, c.schema.Dim, c.spillDir
	epoch0 := c.updateEpoch.Load()
	data := c.data[:n*d]
	c.beginRead() // no patch is in flight: patches run under mu
	c.mu.Unlock()

	// Phase 2 (off-lock): take the checkpoint or write the spill file,
	// and map it; rows and lsn are what the mapping holds (lsn stays 0,
	// as c.walLSN does, without a WAL). The write is O(n·d) disk I/O and
	// must not stall writers — they only lose the in-place-patch fast
	// path meanwhile.
	var m *storage.MmapStore
	var lsn uint64
	rows := n
	var err error
	if c.wal != nil {
		m, lsn, rows, err = c.mapCheckpoint()
	} else {
		m, err = spillColumn(dir, c.name, data, n, d)
	}
	c.endRead()
	c.mu.Lock()
	if err != nil {
		c.mu.Unlock()
		return fmt.Errorf("core: evicting %q: %w", c.name, err)
	}

	// Phase 3 (under mu): re-check that the mapping holds the current
	// column — a checkpoint must cover the collection's LSN and rows —
	// then swap every pointer in one epoch.
	if c.closed || c.n != rows || c.walLSN != lsn || c.updateEpoch.Load() != epoch0 || c.mapped != nil || c.build != nil {
		c.mu.Unlock()
		m.Close() // never published; unmapping is safe
		return fmt.Errorf("core: eviction raced a write; retry")
	}
	c.mapped = m
	c.maps = append(c.maps, m)
	c.data = m.Raw()
	// Same row count: the scorer just repoints its data pointer; cached
	// per-row state (norms) is content-derived and stays valid.
	c.scorer.Extend(c.data, c.n)
	c.rebindLocked()
	if a := c.acct.Load(); a != nil {
		a.SetEvicted(true)
	}
	c.publishLocked()
	c.mu.Unlock()
	return nil
}

// spillColumn writes rows [0, n) of data to a fresh spill file in
// dir, maps it and unlinks it: the mapping keeps the inode alive, the
// namespace stays clean, and a crash leaks no disk space, so the file
// is never fsynced. Every spill gets a new name, so no write truncates
// an inode an older mapping still reads.
func spillColumn(dir, name string, data []float32, n, d int) (*storage.MmapStore, error) {
	f, err := os.CreateTemp(dir, name+"-*.col")
	if err != nil {
		return nil, err
	}
	err = storage.WriteColumnSection(f, data, n, d)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	var m *storage.MmapStore
	if err == nil {
		m, err = storage.OpenColumnSection(f.Name(), 0)
	}
	os.Remove(f.Name())
	return m, err
}

// PromoteToHeap copies an evicted column back to heap and rebinds the
// scorer and index onto the copy. The retired mapping stays alive (in
// c.maps) for snapshots already holding it and is advised away.
func (c *Collection) PromoteToHeap() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mapped == nil || c.closed {
		return nil
	}
	n, d := c.n, c.schema.Dim
	heapCol := make([]float32, n*d)
	copy(heapCol, c.data[:n*d])
	c.data = heapCol
	c.retireMappingLocked()
	c.scorer.Extend(c.data, c.n)
	c.rebindLocked()
	c.publishLocked()
	return nil
}

// promotedLocked finalizes a write-path promotion: the caller already
// replaced c.data with a heap copy (a reallocating append, or a COW
// clone), so only the tier bookkeeping and index rebind remain.
func (c *Collection) promotedLocked() {
	c.retireMappingLocked()
	c.rebindLocked()
	if a := c.acct.Load(); a != nil {
		a.CountPromotion()
	}
	// The caller's mutation path publishes; accounting rides along.
}

// annCurrentLocked reports whether the column holds the vectors the
// installed index was built over: no vector update (nor compaction) has
// landed since its build. Deletes and inserts leave those rows as they
// were. Caller holds mu.
func (c *Collection) annCurrentLocked() bool {
	return c.updateEpoch.Load() == c.annUpdates
}

// rebindLocked points the installed index at c.data when it can rebind
// (index.Remappable); an index that cannot keeps its old column.
func (c *Collection) rebindLocked() {
	if r, ok := c.ann.(index.Remappable); ok {
		if idx, ok := r.Remap(c.data); ok {
			c.ann = idx
		}
	}
}

// retireMappingLocked detaches the active mapping without unmapping it
// (pinned readers and a running build may still read through it, until
// releaseRetiredLocked) and hints the kernel its pages are reclaimable.
func (c *Collection) retireMappingLocked() {
	if c.mapped == nil {
		return
	}
	c.mapped.AdviseDontNeed()
	c.mapped = nil
	if a := c.acct.Load(); a != nil {
		a.SetEvicted(false)
	}
}

// releaseRetiredLocked unmaps the retired mappings (all but the current
// one, which is always last) once nothing reads them: no build runs, the
// index scores c.data (rebindLocked), and no reader is pinned, proven by
// tryPatchLocked's handshake. Called with mu held from publishLocked.
func (c *Collection) releaseRetiredLocked() {
	retired := len(c.maps)
	if c.mapped != nil {
		retired--
	}
	if retired == 0 || c.build != nil {
		return
	}
	if _, ok := c.ann.(index.Remappable); c.ann != nil && !ok {
		return
	}
	c.patching.Store(1)
	if c.active.Load() == 0 {
		for _, m := range c.maps[:retired] {
			m.Close() // a failed unmap leaks address space, nothing else
		}
		c.maps = slices.Delete(c.maps, 0, retired)
	}
	c.patching.Store(0)
}

// closeMaps unmaps every column mapping the collection still holds.
// Only safe once no reader can hold a snapshot — Close calls it after
// the WAL and checkpointer are down.
func (c *Collection) closeMaps() error {
	c.mu.Lock()
	maps := c.maps
	c.maps, c.mapped = nil, nil
	if len(maps) > 0 {
		// c.data may alias the last mapping; leave the collection with
		// no column rather than a faulting one.
		c.data = nil
	}
	c.mu.Unlock()
	var first error
	for _, m := range maps {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
