package cpu

// CheckCommitSkip makes every commit skip on c run a full commit call
// too, and compare what the two did.
func CheckCommitSkip(c *Core) { c.checkSkip = true }

// CommitSkipChecks returns how many skips c has checked against a full
// call, and in how many the full call committed something or charged a
// different number of LDT-full stalls than the skip would have.
func CommitSkipChecks(c *Core) (checked, mismatched int) {
	return c.skipChecks, c.skipMismatches
}

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
