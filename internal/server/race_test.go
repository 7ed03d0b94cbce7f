//go:build race

package server

// Under the race detector sync.Pool drops a share of what is Put, on
// purpose, so allocation counts of pooled paths mean nothing there.
func init() { raceEnabled = true }
