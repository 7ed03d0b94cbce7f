package vdbms

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vdbms/internal/core"
	"vdbms/internal/wal"
)

// Durability configures the durable write path of a DB opened with
// Open. The zero value is the safest configuration: fsync on every
// commit, checkpoints every 30 seconds.
type Durability struct {
	// Fsync is the WAL sync policy: "always" (default — an acknowledged
	// write survives power loss), "interval" (fsync on a timer; survives
	// process crash, exposes up to FsyncInterval of writes to power
	// loss), or "never" (survives process crash only).
	Fsync string
	// FsyncInterval is the fsync period under "interval" (default 50ms).
	FsyncInterval time.Duration
	// CheckpointInterval is the background checkpoint period; 0 means
	// the 30s default, negative disables background checkpoints (a
	// final one is still written on Close).
	CheckpointInterval time.Duration
	// SegmentBytes is the WAL segment rotation threshold (default 64 MiB).
	SegmentBytes int64
}

func (d Durability) options() (core.DurabilityOptions, error) {
	fsync := d.Fsync
	if fsync == "" {
		fsync = "always"
	}
	policy, err := wal.ParseSyncPolicy(fsync)
	if err != nil {
		return core.DurabilityOptions{}, err
	}
	ckpt := d.CheckpointInterval
	if ckpt == 0 {
		ckpt = 30 * time.Second
	} else if ckpt < 0 {
		ckpt = 0 // disabled
	}
	return core.DurabilityOptions{
		Fsync:              policy,
		FsyncInterval:      d.FsyncInterval,
		SegmentBytes:       d.SegmentBytes,
		CheckpointInterval: ckpt,
	}, nil
}

// Open opens (or creates) a durable database rooted at dir. Each
// collection lives in its own subdirectory holding a write-ahead log
// and periodic checkpoints: every mutation is logged before it is
// applied and acknowledged per the Fsync policy, so an acknowledged
// write survives a crash. Collections already present in dir are
// recovered on the spot — newest checkpoint plus WAL replay — and
// collections created later are durable from their first write.
// Call Close on shutdown for a clean final checkpoint (recovery after
// kill -9 works too; it just replays more log).
func Open(dir string, d Durability) (*DB, error) {
	opts, err := d.options()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db := New()
	db.dir, db.dur = dir, opts
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		sub := filepath.Join(dir, e.Name())
		populated, err := core.DirHasCollection(sub)
		if err != nil {
			db.Close()
			return nil, err
		}
		if !populated {
			continue
		}
		inner, err := core.Recover(sub, opts)
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("vdbms: recovering %s: %w", sub, err)
		}
		col := &Collection{inner: inner}
		if dup := db.collections[col.Name()]; dup != nil {
			inner.Close()
			db.Close()
			return nil, fmt.Errorf("vdbms: two directories recover collection %q", col.Name())
		}
		db.collections[col.Name()] = col
	}
	return db, nil
}

// Close shuts down every durable collection: background checkpointers
// stop, a final checkpoint is written (so the next Open replays no
// log), and the WALs are closed. In-memory databases (New) close as a
// no-op. The DB is not usable afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	cols := make([]*Collection, 0, len(db.collections))
	for _, c := range db.collections {
		cols = append(cols, c)
	}
	mem := db.mem
	db.mu.Unlock()
	if mem != nil {
		// Stop the budget actor first: its evict pass must not call into
		// collections that are tearing down their mappings.
		mem.Close()
	}
	var errs []error
	for _, c := range cols {
		if err := c.inner.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing %q: %w", c.Name(), err))
		}
	}
	return errors.Join(errs...)
}

// validCollectionDirName rejects names that would escape the data
// directory or collide with its bookkeeping.
func validCollectionDirName(name string) error {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return fmt.Errorf("vdbms: collection name %q is not usable as a directory", name)
	}
	return nil
}

// Checkpoint forces a checkpoint now: the current snapshot is written
// out and the WAL prefix it covers is retired. Durable collections
// checkpoint in the background anyway; this is for tests and
// operational tooling. Errors on an in-memory collection.
func (c *Collection) Checkpoint() error { return c.inner.Checkpoint() }

// Durability reports whether the collection has a WAL, the sequence
// number of its last logged mutation, and the sequence number covered
// by its latest checkpoint.
func (c *Collection) Durability() (durable bool, lastLSN, checkpointLSN uint64) {
	return c.inner.DurabilityStatus()
}
