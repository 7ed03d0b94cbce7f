//go:build linux

package storage

import (
	"os"
	"syscall"
)

// mmapSupported reports whether this platform serves column files
// through real memory mappings. On Linux the column is mapped
// PROT_READ/MAP_SHARED so the page cache owns residency and the Go
// heap (and GC) never sees the vector bytes.
const mmapSupported = true

// mmapFile maps length bytes of f read-only. The mapping survives a
// later unlink of the file (checkpoint rotation deletes old files
// while recovered collections may still serve from them).
func mmapFile(f *os.File, length int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, length, syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmap(b []byte) error {
	if b == nil {
		return nil
	}
	return syscall.Munmap(b)
}

// madviseDontNeed applies MADV_DONTNEED to a page-aligned region of a
// mapping. Errors are returned for tests; callers treat it as
// best-effort.
func madviseDontNeed(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	return syscall.Madvise(b, syscall.MADV_DONTNEED)
}
