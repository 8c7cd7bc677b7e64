package cpu

// CheckCommitScan makes every commit call on c also walk the window from
// the head as the scanning commit did, and compare decisions.
func CheckCommitScan(c *Core) { c.checkScan = true }

// CommitScanChecks returns how many completed instructions c's commit
// visited under CheckCommitScan, and how many decisions (prefix flags at
// a visit, an instruction the walk reached that commit skipped, the
// point where the walk stopped) disagreed with the walk.
func CommitScanChecks(c *Core) (checked, mismatched int) {
	return c.scanChecks, c.scanMismatches
}
