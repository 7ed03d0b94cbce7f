package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALScan scans arbitrary bytes as the log's only segment. Scan
// must return an error or a result that accounts for what it delivered
// — every payload it hands over fits in the segment, and LastLSN counts
// the records — never panic, and never size a payload by a frame
// length the segment does not hold. The seeds are a segment written by
// the log itself, that segment torn, and a bare header.
func FuzzWALScan(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(dir, 0, Options{Policy: SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{"a", "", "a longer payload", "x"} {
		_, c, err := l.Append([]byte(p))
		if err != nil {
			f.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3])
	f.Add(seg[:segHeaderSize])
	f.Fuzz(func(t *testing.T, img []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), img, 0o644); err != nil {
			t.Fatal(err)
		}
		delivered, bytes := 0, 0
		res, err := Scan(dir, 0, func(lsn uint64, payload []byte) error {
			delivered++
			bytes += frameHeaderSize + len(payload)
			if lsn != uint64(delivered) {
				t.Fatalf("record %d delivered as LSN %d", delivered, lsn)
			}
			return nil
		})
		if err != nil {
			return
		}
		if res.Replayed != delivered || res.LastLSN != uint64(delivered) {
			t.Fatalf("scan reports %d replayed to LSN %d, delivered %d", res.Replayed, res.LastLSN, delivered)
		}
		if bytes > len(img) {
			t.Fatalf("delivered %d bytes of frames from a %d-byte segment", bytes, len(img))
		}
	})
}
