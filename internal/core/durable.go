package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"vdbms/internal/obs"
	"vdbms/internal/storage"
	"vdbms/internal/wal"
)

// Durable write path. A durable collection owns one directory holding
// its WAL segments and checkpoints:
//
//	wal-<firstLSN>.log       append-only log segments (wal package)
//	checkpoint-<lsn>.ckpt    fileSnapshot covering every record ≤ lsn
//
// Every mutation is logged before it is applied (collection.go), so
// the directory always holds enough redo history to rebuild the
// in-memory state: Recover loads the newest checkpoint and replays the
// log records past its LSN. Checkpoints run in the background off a
// pinned epoch snapshot — they never block writers — and each one
// retires the log prefix it covers, keeping recovery time proportional
// to the checkpoint interval rather than the collection's lifetime.

// DurabilityOptions configures the WAL and checkpointer of a durable
// collection.
type DurabilityOptions struct {
	// Fsync is the WAL sync policy (default wal.SyncAlways).
	Fsync wal.SyncPolicy
	// FsyncInterval is the fsync period under wal.SyncInterval
	// (default 50ms).
	FsyncInterval time.Duration
	// SegmentBytes is the WAL segment rotation threshold (default 64 MiB).
	SegmentBytes int64
	// CheckpointInterval is the background checkpoint period; 0 disables
	// the background checkpointer (Checkpoint can still be called, and
	// Close always writes a final one).
	CheckpointInterval time.Duration
	// WrapWriter is the wal.Options fault-injection hook, exposed for
	// crash tests.
	WrapWriter func(w io.Writer) io.Writer
}

func (o DurabilityOptions) walOptions() wal.Options {
	return wal.Options{
		Policy:       o.Fsync,
		Interval:     o.FsyncInterval,
		SegmentBytes: o.SegmentBytes,
		WrapWriter:   o.WrapWriter,
	}
}

// walBinding ties a collection to its log directory.
type walBinding struct {
	log  *wal.Log
	dir  string
	opts DurabilityOptions
}

const (
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
)

func checkpointName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, lsn, ckptSuffix)
}

func parseCheckpointName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// CreateDurable creates a new durable collection rooted at dir. The
// directory must not already hold a collection (use Recover for that).
// The collection's first WAL record is its own schema, so a recovery
// that finds no checkpoint can still rebuild from the log alone.
func CreateDurable(dir, name string, schema Schema, opts DurabilityOptions) (*Collection, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if populated, err := dirHasCollection(dir); err != nil {
		return nil, err
	} else if populated {
		return nil, fmt.Errorf("core: %s already holds a collection; use Recover", dir)
	}
	c, err := NewCollection(name, schema)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(dir, 0, opts.walOptions())
	if err != nil {
		return nil, err
	}
	c.wal = &walBinding{log: log, dir: dir, opts: opts}
	// Birth record: replay recreates the collection from this alone.
	lsn, commit, err := log.Append(encodeSchema(name, c.schema))
	if err != nil {
		log.Close()
		return nil, err
	}
	c.mu.Lock()
	c.walLSN = lsn
	c.publishLocked()
	c.mu.Unlock()
	if err := commit.Wait(); err != nil {
		log.Close()
		return nil, err
	}
	c.startCheckpointer()
	return c, nil
}

// DirHasCollection reports whether dir holds a durable collection
// (WAL segments or checkpoints) — the "create or recover?" probe used
// when opening a data directory.
func DirHasCollection(dir string) (bool, error) {
	populated, err := dirHasCollection(dir)
	if err != nil && os.IsNotExist(err) {
		return false, nil
	}
	return populated, err
}

// dirHasCollection reports whether dir holds WAL segments or
// checkpoints from a previous life.
func dirHasCollection(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if _, ok := parseCheckpointName(e.Name()); ok {
			return true, nil
		}
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			return true, nil
		}
	}
	return false, nil
}

// Recover rebuilds the durable collection rooted at dir: load the
// newest checkpoint (if any), redo every WAL record past its LSN, then
// rebuild the recorded ANN index once and reopen the log for new
// writes. A torn tail in the final WAL segment is truncated silently —
// those bytes were never acknowledged — while corruption earlier in
// the log is an error rather than silent data loss (wal.Scan documents
// the contract).
func Recover(dir string, opts DurabilityOptions) (*Collection, error) {
	c, err := recover1(dir, opts)
	if err != nil {
		obs.WALRecoveries.With("failed").Inc()
		return nil, err
	}
	obs.WALRecoveries.With("ok").Inc()
	return c, nil
}

func recover1(dir string, opts DurabilityOptions) (*Collection, error) {
	ckptPath, ckptLSN, err := latestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	var c *Collection
	ckptRows := 0
	if ckptPath != "" {
		// A v3 checkpoint doubles as an mmap source: the column section
		// is mapped in place and the recovered collection starts in the
		// mmap tier — recovery of a large collection costs metadata and
		// WAL replay, not an O(n·d) heap materialization.
		snap, m, err := openSnapshotFile(ckptPath)
		if err != nil {
			return nil, fmt.Errorf("core: reading checkpoint: %w", err)
		}
		if snap.AppliedLSN != ckptLSN {
			if m != nil {
				m.Close()
			}
			return nil, fmt.Errorf("core: checkpoint %s covers LSN %d, name says %d", filepath.Base(ckptPath), snap.AppliedLSN, ckptLSN)
		}
		c, err = collectionFromSnapshot(snap, m)
		if err != nil {
			if m != nil {
				m.Close()
			}
			return nil, err
		}
		c.replaying = true
		ckptRows = snap.N
	}

	from := ckptLSN
	res, err := wal.Scan(dir, from, func(lsn uint64, payload []byte) error {
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return err
		}
		if c == nil {
			if rec.op != opSchema {
				return fmt.Errorf("core: log starts with op %d, want schema record", rec.op)
			}
			cc, err := NewCollection(rec.name, rec.schema)
			if err != nil {
				return err
			}
			cc.replaying = true
			c = cc
			c.walLSN = lsn
			return nil
		}
		if err := c.applyWALRecord(rec); err != nil {
			return err
		}
		c.walLSN = lsn
		return nil
	})
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("core: %s holds no checkpoint and no log records", dir)
	}

	// Replay done: publish one snapshot for the whole recovered history,
	// then pay for the recorded index build exactly once. The WAL is not
	// attached yet, so the rebuild logs nothing.
	c.mu.Lock()
	c.replaying = false
	c.publishLocked()
	c.mu.Unlock()
	if err := c.buildRecordedIndex(); err != nil {
		return nil, err
	}
	c.WaitForIndex()

	last := c.walLSN
	if res.LastLSN > last {
		// Records at or below the checkpoint LSN still in the log.
		last = res.LastLSN
	}
	log, err := wal.Open(dir, last, opts.walOptions())
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.wal = &walBinding{log: log, dir: dir, opts: opts}
	c.walLSN = last
	c.publishLocked()
	c.mu.Unlock()
	c.ckptLSN, c.ckptRows = ckptLSN, ckptRows
	c.startCheckpointer()
	return c, nil
}

// applyWALRecord redoes one decoded record during recovery. Caller is
// the replay loop: single-goroutine, replaying set, mutations validate
// exactly as the original write path did.
func (c *Collection) applyWALRecord(rec walRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch rec.op {
	case opSchema:
		return fmt.Errorf("core: unexpected schema record mid-log")
	case opInsert:
		if len(rec.vec) != c.schema.Dim {
			return fmt.Errorf("core: logged vector dim %d, collection dim %d", len(rec.vec), c.schema.Dim)
		}
		if err := c.attrs.ValidateRow(rec.attrs); err != nil {
			return err
		}
		_, err := c.applyInsertLocked(rec.vec, rec.attrs)
		return err
	case opUpdate:
		if len(rec.vec) != c.schema.Dim {
			return fmt.Errorf("core: logged vector dim %d, collection dim %d", len(rec.vec), c.schema.Dim)
		}
		row, err := c.liveRowLocked(rec.id)
		if err != nil {
			return err
		}
		return c.applyUpdateLocked(row, rec.vec)
	case opDelete:
		row, err := c.liveRowLocked(rec.id)
		if err != nil {
			return err
		}
		c.applyDeleteLocked(row)
		return nil
	case opCreateIndex:
		// Record the recipe only; recovery builds it once after replay.
		c.annKind, c.annOpts = rec.indexKind, rec.indexOpts
		return nil
	case opDropIndex:
		c.ann, c.annKind, c.annOpts = nil, "", nil
		c.annN, c.dirty = 0, 0
		return nil
	}
	return fmt.Errorf("core: unknown WAL op %d", rec.op)
}

// latestCheckpoint returns the newest checkpoint in dir ("" when none
// exists).
func latestCheckpoint(dir string) (path string, lsn uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return "", 0, nil
		}
		return "", 0, err
	}
	for _, e := range ents {
		if l, ok := parseCheckpointName(e.Name()); ok && (path == "" || l > lsn) {
			path, lsn = filepath.Join(dir, e.Name()), l
		}
	}
	return path, lsn, nil
}

// Checkpoint writes the current epoch snapshot to a checkpoint file
// and retires the WAL prefix it covers. Single-flight; concurrent
// callers serialize. It runs entirely off a pinned snapshot, so
// writers are never blocked, and skips cleanly when nothing changed
// since the last checkpoint.
func (c *Collection) Checkpoint() error {
	if c.wal == nil {
		return fmt.Errorf("core: collection %q is not durable", c.name)
	}
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	return c.checkpointLocked()
}

// checkpointLocked is Checkpoint with ckptMu held.
func (c *Collection) checkpointLocked() error {
	// Seal the active segment first so the log prefix covered by the
	// snapshot we are about to pin is removable afterwards.
	if err := c.wal.log.Rotate(); err != nil {
		obs.CheckpointsTotal.With("failed").Inc()
		return fmt.Errorf("core: checkpoint rotate: %w", err)
	}
	c.beginRead() // writeSnapshot releases it
	s := c.snap.Load()
	// Nothing logged since the last checkpoint and no Compact either (it
	// is not logged, but changes the rows the checkpoint holds).
	if s.lsn <= c.ckptLSN && s.rows == c.ckptRows {
		c.endRead()
		obs.CheckpointsTotal.With("skipped").Inc()
		return nil
	}

	start := time.Now()
	path := filepath.Join(c.wal.dir, checkpointName(s.lsn))
	if err := c.writeSnapshot(path, s); err != nil {
		obs.CheckpointsTotal.With("failed").Inc()
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	obs.CheckpointSeconds.Observe(time.Since(start).Seconds())
	obs.CheckpointsTotal.With("written").Inc()
	obs.CheckpointLastLSN.Set(float64(s.lsn))
	if info, err := os.Stat(path); err == nil {
		obs.CheckpointBytes.Set(float64(info.Size()))
	}
	c.ckptLSN, c.ckptRows = s.lsn, s.rows

	// The new checkpoint supersedes everything before it: older
	// checkpoints and every sealed segment wholly ≤ its LSN. Failures
	// here cost disk space, not durability — the next checkpoint
	// retries — so they are logged to metrics, not returned.
	if err := removeOldCheckpoints(c.wal.dir, s.lsn); err != nil {
		obs.CheckpointsTotal.With("failed").Inc()
		return nil
	}
	if _, err := c.wal.log.RemoveObsolete(s.lsn); err != nil {
		obs.CheckpointsTotal.With("failed").Inc()
	}
	return nil
}

// mapCheckpoint brings the checkpoint up to date (a no-op when the
// latest one covers the current LSN and rows) and maps its column
// section, reporting the LSN and row count the mapping holds. This is
// how a durable collection enters the mmap tier: the checkpoint is its
// only on-disk column. ckptMu is held until the mapping exists, so no
// newer checkpoint can remove the file first.
func (c *Collection) mapCheckpoint() (m *storage.MmapStore, lsn uint64, rows int, err error) {
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	if err := c.checkpointLocked(); err != nil {
		return nil, 0, 0, err
	}
	path := filepath.Join(c.wal.dir, checkpointName(c.ckptLSN))
	m, err = mapSnapshotColumn(path, c.ckptRows, c.schema.Dim)
	return m, c.ckptLSN, c.ckptRows, err
}

// removeOldCheckpoints deletes every checkpoint below keep.
func removeOldCheckpoints(dir string, keep uint64) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var removed bool
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		if l, ok := parseCheckpointName(name); ok && l < keep {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		return wal.SyncDir(dir)
	}
	return nil
}

// startCheckpointer launches the background checkpoint loop when the
// options ask for one.
func (c *Collection) startCheckpointer() {
	iv := c.wal.opts.CheckpointInterval
	if iv <= 0 {
		return
	}
	c.ckptStop = make(chan struct{})
	c.ckptDone = make(chan struct{})
	go func() {
		defer close(c.ckptDone)
		tick := time.NewTicker(iv)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.Checkpoint() // failures surface via metrics; next tick retries
			case <-c.ckptStop:
				return
			}
		}
	}()
}

// Close shuts the durable machinery down cleanly: stop the background
// checkpointer, wait out any index build, write a final checkpoint (so
// the next recovery replays nothing), close the log, and unmap any
// mmap-tier column mappings. Idempotent; a nil-WAL (in-memory)
// collection only releases its mappings. After Close the collection
// must not be used — retired snapshots may reference unmapped memory.
func (c *Collection) Close() error {
	// In-memory collections need this too, and it is idempotent. A
	// background pass left running would scan columns Close unmaps.
	c.DisableRecall()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	durable := c.wal != nil
	c.mu.Unlock()

	if !durable {
		return c.closeMaps()
	}
	if c.ckptStop != nil {
		close(c.ckptStop)
		<-c.ckptDone
	}
	c.WaitForIndex()
	cerr := c.Checkpoint()
	werr := c.wal.log.Close()
	merr := c.closeMaps()
	if cerr != nil {
		return cerr
	}
	if werr != nil {
		return werr
	}
	return merr
}

// DurabilityStatus reports whether the collection is durable, the LSN
// of its last logged mutation, and the LSN covered by its latest
// checkpoint.
func (c *Collection) DurabilityStatus() (durable bool, lastLSN, ckptLSN uint64) {
	c.mu.Lock()
	durable, lastLSN = c.wal != nil, c.walLSN
	c.mu.Unlock()
	c.ckptMu.Lock()
	ckptLSN = c.ckptLSN
	c.ckptMu.Unlock()
	return durable, lastLSN, ckptLSN
}
