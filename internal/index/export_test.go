package index

// SetScanBlock makes every scan score bs rows per kernel call and
// returns the func that restores the previous size, for t.Cleanup.
func SetScanBlock(bs int) (restore func()) {
	old := scanBlock
	scanBlock = bs
	return func() { scanBlock = old }
}
