package index

// SetScanBlock makes every scan score bs rows per kernel call and
// returns the func that restores the previous size, for t.Cleanup.
func SetScanBlock(bs int) (restore func()) {
	old := scanBlock
	scanBlock = bs
	return func() { scanBlock = old }
}

// SetScanParts makes every fan-out split into w parts (up to its task
// count), whatever the rule would pick, and returns the func that
// restores the rule, for t.Cleanup.
func SetScanParts(w int) (restore func()) {
	old := scanParts
	scanParts = w
	return func() { scanParts = old }
}
