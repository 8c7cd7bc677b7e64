package cpu

// CheckCommitSkip makes every commit-scan skip on c run the full scan
// too, and compare what the two did.
func CheckCommitSkip(c *Core) { c.checkSkip = true }

// CommitSkipChecks returns how many skips c has checked against the full
// scan, and in how many the full scan committed something or charged a
// different number of LDT-full stalls than the skip would have.
func CommitSkipChecks(c *Core) (checked, mismatched int) {
	return c.skipChecks, c.skipMismatches
}
