//go:build race

package core

// Under the race detector every memory access is instrumented, about
// ten times slower and unevenly so, so timing gates mean nothing there.
func init() { raceEnabled = true }
