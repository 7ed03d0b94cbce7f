// Package storage implements the Vector Storage box of Figure 1 for the
// memory-tiered serving path: a page-aligned float32 column file
// served through mmap. The mapping is PROT_READ, so the kernel page
// cache owns residency — a collection evicted to the mmap tier costs
// ~0 heap, faults pages in on first touch, and can be reclaimed by the
// kernel under global memory pressure without the process noticing.
// Raw() returns a zero-copy view with the exact same row-major layout
// as a heap column, so vec.Scorer and vec.QuantScorer bind to a mapped
// column unchanged and scores are bit-identical to the heap tier.
//
// Column files are NATIVE-ENDIAN (the float payload is written by
// reinterpreting the []float32 — that is what makes the read side
// zero-copy). A sentinel in the header rejects files written on a
// foreign-endian machine. A column image is the column section of a
// checkpoint (which a durable collection's mmap tier maps in place) or
// a non-durable collection's transient spill file, not an interchange
// format.
package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"unsafe"
)

const (
	columnMagic   = uint32(0x4c4f4356) // "VCOL"
	columnVersion = uint32(1)
	// ColumnHeaderSize pads the header to one page so the float column
	// starts page-aligned in the mapping (madvise operates on pages,
	// and an aligned column keeps rows from straddling an extra page).
	ColumnHeaderSize = 4096
	// endianSentinel is written through the same unsafe reinterpret as
	// the payload; a reader on a foreign-endian machine sees it
	// byte-swapped and refuses the file.
	endianSentinel = uint32(0x00c0ffee)
)

// f32Bytes reinterprets a float32 slice as bytes without copying.
func f32Bytes(f []float32) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), len(f)*4)
}

// bytesF32 reinterprets a 4-byte-aligned byte slice as float32s.
func bytesF32(b []byte) []float32 {
	if len(b) < 4 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%4 != 0 {
		panic("storage: column data not 4-byte aligned")
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// WriteColumnSection writes the column-file image (page-sized header
// plus raw native-endian payload) to w. It is the whole of a spill
// file and the tail section of v3 snapshot files — callers embedding
// it must place it at a page-aligned offset so the payload stays
// page-aligned in a mapping. The payload is written straight from
// flat, without a copy.
func WriteColumnSection(w io.Writer, flat []float32, n, dim int) error {
	if dim <= 0 || n < 0 || len(flat) < n*dim {
		return fmt.Errorf("storage: bad column shape n=%d dim=%d len=%d", n, dim, len(flat))
	}
	hdr := make([]byte, ColumnHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:], columnMagic)
	binary.LittleEndian.PutUint32(hdr[4:], columnVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(dim))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(n))
	*(*uint32)(unsafe.Pointer(&hdr[12])) = endianSentinel // native order
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(f32Bytes(flat[:n*dim]))
	return err
}

// ReadColumnSection reads a column-file image from r onto the heap —
// the portable path for snapshot streams and platforms without mmap.
// size is how many bytes r holds from the header on: a header claiming
// more rows than that is refused before anything is allocated.
func ReadColumnSection(r io.Reader, size int64) (flat []float32, n, dim int, err error) {
	hdr := make([]byte, ColumnHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, 0, 0, fmt.Errorf("storage: column header: %w", err)
	}
	n, dim, err = parseColumnHeader(hdr, "stream", size-ColumnHeaderSize)
	if err != nil {
		return nil, 0, 0, err
	}
	flat = make([]float32, n*dim)
	if _, err := io.ReadFull(r, f32Bytes(flat)); err != nil {
		return nil, 0, 0, fmt.Errorf("storage: column payload: %w", err)
	}
	return flat, n, dim, nil
}

// parseColumnHeader validates the fixed column header fields against
// the payload bytes that follow the header.
func parseColumnHeader(hdr []byte, name string, payload int64) (n, dim int, err error) {
	if binary.LittleEndian.Uint32(hdr[0:]) != columnMagic {
		return 0, 0, fmt.Errorf("storage: %s is not a column file", name)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != columnVersion {
		return 0, 0, fmt.Errorf("storage: column version %d not supported", v)
	}
	if *(*uint32)(unsafe.Pointer(&hdr[12])) != endianSentinel {
		return 0, 0, fmt.Errorf("storage: %s written on a foreign-endian machine", name)
	}
	dim = int(binary.LittleEndian.Uint32(hdr[8:]))
	n = int(binary.LittleEndian.Uint64(hdr[16:]))
	if dim <= 0 || n < 0 {
		return 0, 0, fmt.Errorf("storage: column header corrupt (dim=%d n=%d)", dim, n)
	}
	// n·dim·4 ≤ payload, divided out so that no product can overflow.
	if int64(n) > payload/4/int64(dim) {
		return 0, 0, fmt.Errorf("storage: %s truncated: header says %d×%d floats, %d payload bytes follow", name, n, dim, payload)
	}
	return n, dim, nil
}

// MmapStore serves a float32 column from a read-only file mapping
// through the zero-copy Raw view. The mapping must stay alive for as
// long as any published snapshot references Raw() — owners call Close only when
// the collection itself is torn down, never on eviction/promotion.
type MmapStore struct {
	raw  []byte    // whole mapping (page-aligned base)
	data []float32 // column view into raw
	dim  int
	n    int
}

// OpenColumnSection validates a column-file image embedded at offset
// within path (offset 0 for a spill file; a page-aligned offset for
// the column section of v3 snapshot files) and maps its payload.
func OpenColumnSection(path string, offset int64) (*MmapStore, error) {
	if offset < 0 || offset%4 != 0 {
		return nil, fmt.Errorf("storage: bad column offset %d", offset)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// The fd can be closed once mapped: the mapping keeps the inode
	// alive even if the file is later unlinked (checkpoint rotation,
	// spill files).
	defer f.Close()
	hdr := make([]byte, 32)
	if _, err := f.ReadAt(hdr, offset); err != nil {
		return nil, fmt.Errorf("storage: column header: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	start := offset + ColumnHeaderSize
	n, dim, err := parseColumnHeader(hdr, path, fi.Size()-start)
	if err != nil {
		return nil, err
	}
	need := start + int64(n)*int64(dim)*4
	raw, err := mmapFile(f, int(fi.Size()))
	if err != nil {
		return nil, fmt.Errorf("storage: mmap %s: %w", path, err)
	}
	return &MmapStore{raw: raw, data: bytesF32(raw[start:need]), dim: dim, n: n}, nil
}

// Dim returns the vector dimensionality.
func (m *MmapStore) Dim() int { return m.dim }

// Count returns the number of rows.
func (m *MmapStore) Count() int { return m.n }

// MmapSupported reports whether this platform serves column files
// through real memory mappings. When false, OpenColumnSection
// materializes the column on heap — correct, but an "eviction" to that
// tier would free nothing, so callers should refuse to evict.
func MmapSupported() bool { return mmapSupported }

// Raw returns the whole column as a zero-copy row-major view, so
// scorers bind to it directly. Callers must not mutate it (the mapping
// is read-only; writes fault).
func (m *MmapStore) Raw() []float32 { return m.data[:m.n*m.dim] }

// columnRegion returns the page-aligned slice of the mapping covering
// the float column, which is what madvise needs.
func (m *MmapStore) columnRegion() []byte {
	if len(m.raw) == 0 || len(m.data) == 0 {
		return nil
	}
	start := uintptr(unsafe.Pointer(&m.data[0])) - uintptr(unsafe.Pointer(&m.raw[0]))
	start &^= 4095 // align down to the page holding the first row
	return m.raw[start:]
}

// AdviseDontNeed tells the kernel the column's pages are not needed
// now. On this file-backed shared mapping that drops the process's
// page-table entries only: the page cache keeps the bytes, so the next
// access is a minor fault served from memory, not a read from disk. A
// cold read needs the file's page cache dropped as well
// (posix_fadvise POSIX_FADV_DONTNEED on the file). The mapping stays
// valid. A retired mapping is advised away so its pages stop counting
// against the process.
func (m *MmapStore) AdviseDontNeed() error {
	return madviseDontNeed(m.columnRegion())
}

// Close unmaps the column. Unsafe while any snapshot still references
// Raw()/RowView results; owners must quiesce readers first.
func (m *MmapStore) Close() error {
	raw := m.raw
	m.raw, m.data = nil, nil
	return munmap(raw)
}
