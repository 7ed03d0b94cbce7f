//go:build !linux

package storage

import (
	"io"
	"os"
)

// mmapSupported is false off Linux: the portable fallback reads the
// column into an anonymous heap buffer, so MmapStore still works (and
// keeps its zero-copy interface) but provides no residency savings.
const mmapSupported = false

func mmapFile(f *os.File, length int) ([]byte, error) {
	buf := make([]byte, length)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(length)), buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func munmap(b []byte) error { return nil }

func madviseDontNeed(b []byte) error { return nil }
