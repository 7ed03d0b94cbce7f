package storage

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func randColumn(n, d int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	flat := make([]float32, n*d)
	for i := range flat {
		flat[i] = rng.Float32()*2 - 1
	}
	return flat
}

// writeColumnFile writes a standalone column file, the layout of a
// spill file: the column image at offset 0.
func writeColumnFile(t *testing.T, path string, flat []float32, n, d int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := WriteColumnSection(f, flat, n, d); err != nil {
		t.Fatal(err)
	}
}

func TestColumnFileRoundTrip(t *testing.T) {
	const n, d = 137, 24
	flat := randColumn(n, d, 1)
	path := filepath.Join(t.TempDir(), "c.col")
	writeColumnFile(t, path, flat, n, d)
	m, err := OpenColumnSection(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Count() != n || m.Dim() != d {
		t.Fatalf("shape (%d, %d), want (%d, %d)", m.Count(), m.Dim(), n, d)
	}
	raw := m.Raw()
	if len(raw) != n*d {
		t.Fatalf("Raw len %d, want %d", len(raw), n*d)
	}
	for i := range flat {
		if raw[i] != flat[i] {
			t.Fatalf("Raw[%d] = %v, want %v", i, raw[i], flat[i])
		}
	}
}

func TestColumnSectionRoundTrip(t *testing.T) {
	const n, d = 41, 7
	flat := randColumn(n, d, 2)
	var buf bytes.Buffer
	if err := WriteColumnSection(&buf, flat, n, d); err != nil {
		t.Fatal(err)
	}
	got, gn, gd, err := ReadColumnSection(&buf, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if gn != n || gd != d {
		t.Fatalf("shape (%d, %d), want (%d, %d)", gn, gd, n, d)
	}
	for i := range flat {
		if got[i] != flat[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], flat[i])
		}
	}
}

// TestOpenColumnSectionAtOffset maps a column image embedded mid-file —
// the layout the v3 checkpoint container uses (metadata, padding to a
// page boundary, column section).
func TestOpenColumnSectionAtOffset(t *testing.T) {
	if !MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	const n, d = 63, 12
	const offset = 4 * ColumnHeaderSize // page-aligned, as the writer guarantees
	flat := randColumn(n, d, 3)
	var buf bytes.Buffer
	buf.Write(make([]byte, offset))
	if err := WriteColumnSection(&buf, flat, n, d); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "embedded.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenColumnSection(path, offset)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Count() != n || m.Dim() != d {
		t.Fatalf("shape (%d, %d), want (%d, %d)", m.Count(), m.Dim(), n, d)
	}
	raw := m.Raw()
	for i := range flat {
		if raw[i] != flat[i] {
			t.Fatalf("element %d = %v, want %v", i, raw[i], flat[i])
		}
	}
}

func TestOpenColumnCorruption(t *testing.T) {
	const n, d = 10, 4
	flat := randColumn(n, d, 4)
	dir := t.TempDir()

	good := filepath.Join(dir, "good.col")
	writeColumnFile(t, good, flat, n, d)
	img, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	// rows rewrites the header's row count: 2^50 rows would allocate
	// petabytes, and 2^62 rows of 4 floats overflow n·dim·4 to 0 bytes.
	rows := func(n uint64) []byte {
		b := slices.Clone(img)
		binary.LittleEndian.PutUint64(b[16:], n)
		return b
	}
	cases := map[string][]byte{
		"bad-magic":         append(append([]byte{}, 'X', 'X', 'X', 'X'), img[4:]...),
		"truncated-header":  img[:ColumnHeaderSize/2],
		"truncated-payload": img[:len(img)-7],
		"empty":             {},
		"huge-row-count":    rows(1 << 50),
		"overflowing-rows":  rows(1 << 62),
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(dir, name)
			if err := os.WriteFile(p, corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			if m, err := OpenColumnSection(p, 0); err == nil {
				m.Close()
				t.Fatal("opened a corrupt column file")
			}
			if _, _, _, err := ReadColumnSection(bytes.NewReader(corrupt), int64(len(corrupt))); err == nil {
				t.Fatal("read a corrupt column image onto the heap")
			}
		})
	}
}

// TestColumnSurvivesUnlink: the eviction protocol unlinks the spill
// file immediately after mapping; the mapping must keep serving.
func TestColumnSurvivesUnlink(t *testing.T) {
	if !MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	const n, d = 29, 8
	flat := randColumn(n, d, 5)
	path := filepath.Join(t.TempDir(), "gone.col")
	writeColumnFile(t, path, flat, n, d)
	m, err := OpenColumnSection(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	raw := m.Raw()
	for i := range flat {
		if raw[i] != flat[i] {
			t.Fatalf("post-unlink element %d = %v, want %v", i, raw[i], flat[i])
		}
	}
}

func TestColumnAdvise(t *testing.T) {
	const n, d = 16, 4
	flat := randColumn(n, d, 6)
	path := filepath.Join(t.TempDir(), "a.col")
	writeColumnFile(t, path, flat, n, d)
	m, err := OpenColumnSection(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.AdviseDontNeed(); err != nil {
		t.Fatalf("AdviseDontNeed: %v", err)
	}
	// Data still intact after DontNeed (pages fault back in from the file).
	raw := m.Raw()
	for i := range flat {
		if raw[i] != flat[i] {
			t.Fatalf("post-advise element %d = %v, want %v", i, raw[i], flat[i])
		}
	}
}

func TestColumnEmptyAndClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "z.col")
	writeColumnFile(t, path, nil, 0, 4)
	m, err := OpenColumnSection(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 0 || len(m.Raw()) != 0 {
		t.Fatalf("empty column reports %d rows, Raw len %d", m.Count(), len(m.Raw()))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
