package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"vdbms/internal/bitset"
	"vdbms/internal/filter"
	"vdbms/internal/index"
	"vdbms/internal/storage"
	"vdbms/internal/vec"
	"vdbms/internal/wal"
)

// Persistence: a collection serializes to a single file holding the
// schema, vectors, attribute columns, deletion set, and the index
// *recipe* (family + options). Indexes themselves are rebuilt on load
// — they are derived data, and each family's build is deterministic
// given its seed, so a rebuild reproduces the same structure without
// freezing internal layouts into the file format.
//
// The same serialization is the checkpoint format of the durable
// write path (durable.go): a checkpoint is a fileSnapshot stamped with
// the WAL position (AppliedLSN) it covers, and recovery is load +
// replay of newer log records.
//
// Serialization reads a pinned epoch snapshot, never the writer state:
// Save and checkpoints take no locks, cannot observe torn state, and
// never block writers — the PR 5 snapshot design makes consistent
// backups free by construction.

// fileSnapshot is the gob-encoded on-disk form (distinct from the
// in-memory epoch snapshot in collection.go).
type fileSnapshot struct {
	FormatVersion int
	Name          string
	Dim           int
	Metric        int32
	RebuildFrac   float64
	N             int
	Data          []float32
	// Deleted lists the deleted rows.
	Deleted []int64
	// IDs maps row → id and NextID is the next id to issue; both are
	// absent until the first Compact, and absent means id = row and
	// NextID = N.
	IDs    []int64
	NextID int64
	// Attribute columns by name; exactly one slice per column is
	// non-nil, matching Kind.
	AttrKinds  map[string]int32
	IntColumns map[string][]int64
	FltColumns map[string][]float64
	StrColumns map[string][]string
	IndexKind  string
	IndexOpts  map[string]int
	// Quantization/RerankK mirror the schema's compressed-scan
	// defaults.
	Quantization string
	RerankK      int
	// AppliedLSN is the WAL position this snapshot covers (0 for plain
	// Save files).
	AppliedLSN uint64
}

// Snapshot container format (v3, the only one read or written): a
// 16-byte preamble (magic, column offset), the gob metadata with Data
// omitted, zero padding to a page boundary, then the float column as a
// storage column-file image. The column lands page-aligned, so a
// checkpoint doubles as an mmap source: recovery and the eviction of a
// durable collection map it in place instead of holding the vectors on
// the heap or writing them out a second time
// (storage.OpenColumnSection).
const (
	snapshotVersion = 3
	snapshotMagic   = uint32(0x56534e33) // "3NSV"
	preambleSize    = 16
)

// fileSnapshotAt builds the metadata of one epoch snapshot: every
// field but the float column, which writeSnapshot streams from the
// epoch itself. Everything it reads is immutable (the deletion mask is
// copy-on-write, the attribute view pins its row count).
func (c *Collection) fileSnapshotAt(s *snapshot) *fileSnapshot {
	snap := &fileSnapshot{
		FormatVersion: snapshotVersion,
		Name:          c.name,
		Dim:           c.schema.Dim,
		Metric:        int32(c.schema.Metric),
		RebuildFrac:   c.schema.RebuildFraction,
		N:             s.rows,
		AttrKinds:     map[string]int32{},
		IntColumns:    map[string][]int64{},
		FltColumns:    map[string][]float64{},
		StrColumns:    map[string][]string{},
		IndexKind:     s.annKind,
		IndexOpts:     s.annOpts,
		Quantization:  c.schema.Quantization,
		RerankK:       c.schema.RerankK,
		AppliedLSN:    s.lsn,
	}
	if s.del != nil {
		s.del.ForEach(func(i int) bool {
			snap.Deleted = append(snap.Deleted, int64(i))
			return true
		})
	}
	if s.ids != nil {
		snap.IDs, snap.NextID = s.ids, s.nextID
	}
	for _, name := range s.env.Attrs.Columns() {
		col, _ := s.env.Attrs.Column(name)
		snap.AttrKinds[name] = int32(col.Kind())
		switch col.Kind() {
		case filter.Int64:
			snap.IntColumns[name] = col.Int64s(s.rows)
		case filter.Float64:
			snap.FltColumns[name] = col.Float64s(s.rows)
		case filter.String:
			snap.StrColumns[name] = col.Strings(s.rows)
		}
	}
	return snap
}

// Save writes the collection to path atomically. It serializes the
// current epoch snapshot, so it never blocks writers and cannot
// observe a torn state; rows inserted after the call starts are simply
// not in the file.
func (c *Collection) Save(path string) error {
	c.beginRead()
	return c.writeSnapshot(path, c.snap.Load())
}

// writeSnapshot writes epoch s to path: its metadata, then its float
// column straight from the epoch — heap or mapping — with no copy. The
// caller loaded s inside a reader pin (beginRead), which keeps an
// in-place update patch from landing mid-write; writeSnapshot releases
// that pin once the column bytes are in the file, before the fsync.
func (c *Collection) writeSnapshot(path string, s *snapshot) error {
	return writeSnapshotFile(path, c.fileSnapshotAt(s), s.env.Data[:s.rows*c.schema.Dim], c.endRead)
}

// writeSnapshotFile is the shared atomic write-rename-sync sequence
// for Save files and checkpoints, emitting the v3 container: the
// metadata gob first (meta.Data is nil), then column page-aligned at
// the tail. written is called exactly once, as soon as column is no
// longer read.
func writeSnapshotFile(path string, meta *fileSnapshot, column []float32, written func()) error {
	var enc bytes.Buffer
	if err := gob.NewEncoder(&enc).Encode(meta); err != nil {
		written()
		return fmt.Errorf("core: encoding snapshot: %w", err)
	}
	columnOff := int64(preambleSize + enc.Len())
	if rem := columnOff % storage.ColumnHeaderSize; rem != 0 {
		columnOff += storage.ColumnHeaderSize - rem
	}
	return atomicWriteFile(path, func(w io.Writer) error {
		var pre [preambleSize]byte
		binary.LittleEndian.PutUint32(pre[0:], snapshotMagic)
		binary.LittleEndian.PutUint64(pre[8:], uint64(columnOff))
		if _, err := w.Write(pre[:]); err != nil {
			return err
		}
		if _, err := w.Write(enc.Bytes()); err != nil {
			return err
		}
		pad := make([]byte, columnOff-int64(preambleSize+enc.Len()))
		if _, err := w.Write(pad); err != nil {
			return err
		}
		return storage.WriteColumnSection(w, column, meta.N, meta.Dim)
	}, written)
}

// atomicWriteFile writes path so a crash at any point leaves either
// the old file or the new one, never a mix: write a temp file, fsync
// it, rename over the target, then fsync the parent directory — the
// last step is what makes the rename itself durable; without it a
// power failure can resurface the old file (or nothing) even though
// the rename "succeeded". written is called exactly once, after
// write's bytes reached the file and before the fsync.
func atomicWriteFile(path string, write func(w io.Writer) error, written func()) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		written()
		return err
	}
	w := bufio.NewWriter(f)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	written()
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return wal.SyncDir(filepath.Dir(path))
}

// Load reads a collection saved by Save and rebuilds its index (if
// one was configured).
func Load(path string) (*Collection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := decodeSnapshot(f)
	if err != nil {
		return nil, err
	}
	c, err := collectionFromSnapshot(snap, nil)
	if err != nil {
		return nil, err
	}
	if err := c.buildRecordedIndex(); err != nil {
		return nil, err
	}
	return c, nil
}

// readPreamble reads the v3 preamble and returns the column offset. A
// file without the v3 magic (including the bare-gob v1/v2 containers,
// which are no longer read) is refused.
func readPreamble(r io.Reader) (int64, error) {
	var pre [preambleSize]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return 0, fmt.Errorf("core: snapshot preamble: %w", err)
	}
	if binary.LittleEndian.Uint32(pre[0:]) != snapshotMagic {
		return 0, fmt.Errorf("core: not a v%d snapshot (bad magic; v1/v2 files are no longer readable)", snapshotVersion)
	}
	columnOff := int64(binary.LittleEndian.Uint64(pre[8:]))
	if columnOff < preambleSize {
		return 0, fmt.Errorf("core: snapshot column offset %d corrupt", columnOff)
	}
	return columnOff, nil
}

// decodeSnapshot reads and version-checks one serialized snapshot file,
// materializing the column section on the heap.
func decodeSnapshot(f *os.File) (*fileSnapshot, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(f)
	columnOff, err := readPreamble(br)
	if err != nil {
		return nil, err
	}
	snap, consumed, err := decodeSnapshotMeta(br)
	if err != nil {
		return nil, err
	}
	if skip := columnOff - preambleSize - consumed; skip > 0 {
		if _, err := io.CopyN(io.Discard, br, skip); err != nil {
			return nil, fmt.Errorf("core: snapshot padding: %w", err)
		}
	}
	flat, n, dim, err := storage.ReadColumnSection(br, fi.Size()-columnOff)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot column: %w", err)
	}
	if n != snap.N || dim != snap.Dim {
		return nil, fmt.Errorf("core: snapshot column is %d×%d, metadata says %d×%d", n, dim, snap.N, snap.Dim)
	}
	snap.Data = flat
	return snap, nil
}

// countingReader counts consumed bytes and exposes ReadByte so gob
// reads exactly the encoded messages (a gob.Decoder wraps readers
// without ReadByte in its own bufio, over-reading past the value).
type countingReader struct {
	br *bufio.Reader
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// decodeSnapshotMeta decodes the v3 metadata gob, reporting how many
// bytes of the stream it consumed (needed to skip the alignment pad).
func decodeSnapshotMeta(br *bufio.Reader) (*fileSnapshot, int64, error) {
	cr := &countingReader{br: br}
	var snap fileSnapshot
	if err := gob.NewDecoder(cr).Decode(&snap); err != nil {
		return nil, 0, fmt.Errorf("core: decoding snapshot metadata: %w", err)
	}
	if snap.FormatVersion != snapshotVersion {
		return nil, 0, fmt.Errorf("core: snapshot version %d, only v%d is supported", snap.FormatVersion, snapshotVersion)
	}
	return &snap, cr.n, nil
}

// openSnapshotFile loads one checkpoint or Save file from disk. On an
// mmap-capable platform it returns the metadata plus a live mapping of
// the column section (snap.Data stays nil); otherwise the column is
// materialized on the heap and the mapping is nil.
func openSnapshotFile(path string) (*fileSnapshot, *storage.MmapStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if !storage.MmapSupported() {
		snap, err := decodeSnapshot(f)
		return snap, nil, err
	}
	columnOff, err := readPreamble(f)
	if err != nil {
		return nil, nil, err
	}
	snap, _, err := decodeSnapshotMeta(bufio.NewReader(io.NewSectionReader(f, preambleSize, columnOff-preambleSize)))
	if err != nil {
		return nil, nil, err
	}
	m, err := mapSnapshotColumn(path, snap.N, snap.Dim)
	return snap, m, err
}

// mapSnapshotColumn maps the column section of the snapshot file at
// path, checking that it holds n×dim, without decoding the metadata.
func mapSnapshotColumn(path string, n, dim int) (*storage.MmapStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	columnOff, err := readPreamble(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	m, err := storage.OpenColumnSection(path, columnOff)
	if err != nil {
		return nil, fmt.Errorf("core: mapping snapshot column: %w", err)
	}
	if m.Count() != n || m.Dim() != dim {
		m.Close()
		return nil, fmt.Errorf("core: snapshot column is %d×%d, metadata says %d×%d", m.Count(), m.Dim(), n, dim)
	}
	return m, nil
}

// collectionFromSnapshot restores a collection in bulk: columns are
// adopted wholesale after length validation instead of replaying one
// Insert (and one map allocation) per row, vectors get a single scorer
// build over the full array, and the deletion set is validated and
// installed as one bitset. Invariants the per-row path re-established
// incrementally are checked once up front. The recorded index recipe
// is installed but NOT built — callers decide when (Load builds
// immediately; Recover defers until after WAL replay).
//
// When m is non-nil the collection adopts the mapped column as its
// float store (snap.Data is ignored) and starts life in the mmap tier:
// the checkpoint file itself serves the vectors, the heap never holds
// a copy, and the first write-path mutation promotes transparently.
// The collection takes ownership of m — it is closed with the
// collection — and on any restore error the caller keeps ownership.
func collectionFromSnapshot(snap *fileSnapshot, m *storage.MmapStore) (*Collection, error) {
	column := snap.Data
	if m != nil {
		column = m.Raw()
	}
	if snap.N < 0 || len(column) != snap.N*snap.Dim {
		return nil, fmt.Errorf("core: snapshot has %d vector floats, want %d rows × %d dim", len(column), snap.N, snap.Dim)
	}
	attrs := map[string]filter.Kind{}
	for name, k := range snap.AttrKinds {
		attrs[name] = filter.Kind(k)
	}
	c, err := NewCollection(snap.Name, Schema{
		Dim:             snap.Dim,
		Metric:          vec.Metric(snap.Metric),
		Attributes:      attrs,
		RebuildFraction: snap.RebuildFrac,
		Quantization:    snap.Quantization,
		RerankK:         snap.RerankK,
	})
	if err != nil {
		return nil, err
	}
	if err := c.attrs.BulkRestore(snap.N, snap.IntColumns, snap.FltColumns, snap.StrColumns); err != nil {
		return nil, fmt.Errorf("core: restoring attributes: %w", err)
	}
	sc, err := vec.NewScorer(c.schema.Metric, column, snap.N, snap.Dim)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	c.data, c.n, c.scorer = column, snap.N, sc
	if m != nil {
		c.mapped = m
		c.maps = append(c.maps, m)
	}
	c.nextID = int64(snap.N)
	if snap.NextID != 0 {
		// Compacted: one id per row, ascending, below NextID.
		if len(snap.IDs) != snap.N {
			return nil, fmt.Errorf("core: snapshot has %d ids for %d rows", len(snap.IDs), snap.N)
		}
		prev := int64(-1)
		for _, id := range snap.IDs {
			if id <= prev || id >= snap.NextID {
				return nil, fmt.Errorf("core: snapshot ids are not ascending in [0,%d)", snap.NextID)
			}
			prev = id
		}
		c.ids, c.nextID = snap.IDs, snap.NextID
		if c.ids == nil {
			c.ids = []int64{} // compacted to no rows; nil means ids are rows
		}
	}
	if len(snap.Deleted) > 0 {
		del := bitset.New(c.n)
		for _, row := range snap.Deleted {
			if row < 0 || row >= int64(c.n) {
				return nil, fmt.Errorf("core: restoring tombstone %d: row out of range [0,%d)", row, c.n)
			}
			if del.Test(int(row)) {
				return nil, fmt.Errorf("core: restoring tombstone %d: duplicate", row)
			}
			del.Set(int(row))
			c.nDel++
		}
		c.del = del
	}
	if _, ok := index.Lookup(snap.IndexKind); snap.IndexKind != "" && !ok {
		return nil, fmt.Errorf("core: snapshot records unknown index %q (known: %v)", snap.IndexKind, index.Names())
	}
	c.annKind, c.annOpts = snap.IndexKind, snap.IndexOpts
	c.walLSN = snap.AppliedLSN
	c.publishLocked() // no concurrency before the restorer returns
	return c, nil
}

// buildRecordedIndex builds and installs the index recipe recorded by
// collectionFromSnapshot (a no-op without one). Split from restore so
// recovery replays the whole log before paying for a single build. A
// recipe the family's option table refuses (index.ErrOption; logged
// before the table bounded its options) leaves the collection
// unindexed, serving exact scans, instead of failing recovery:
// CreateIndex has counted the failed build and reverted the recipe to
// none, so the next checkpoint records no index. A collection compacted
// to no rows keeps its recipe unbuilt until rows arrive.
func (c *Collection) buildRecordedIndex() error {
	c.mu.Lock()
	kind, opts, n := c.annKind, c.annOpts, c.n
	if kind != "" && n > 0 {
		c.annKind, c.annOpts = "", nil // what a refused recipe reverts to
	}
	c.mu.Unlock()
	if kind == "" || n == 0 {
		return nil
	}
	err := c.CreateIndex(kind, opts)
	if errors.Is(err, index.ErrOption) {
		log.Printf("vdbms: %q recovers unindexed: recorded %s index %v refused: %v", c.name, kind, opts, err)
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: rebuilding %s index: %w", kind, err)
	}
	return nil
}
