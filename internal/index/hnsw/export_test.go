package hnsw

import (
	"runtime"
	"testing"
)

// setWidth makes the test's builds search w nodes at once; 1 builds
// serially.
func setWidth(t testing.TB, w int) {
	old := width
	width = w
	t.Cleanup(func() { width = old })
}

// setProcs runs the rest of the test at GOMAXPROCS p.
func setProcs(t testing.TB, p int) {
	old := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}
