package cpu

import "wbsim/internal/mem"

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

// LeakLDTEntry gives c a live LDT entry for line that no load holds, as
// a release bug would leave behind: a load reading line commits past an
// older unperformed one, which is then squashed unperformed. A program
// without loads never reaches onOrderingChange, so the entry stays to
// the end of the run.
func LeakLDTEntry(c *Core, line mem.Line) {
	c.ord.Push(1, 0, false)
	c.ord.Push(2, 0, false)
	c.ord.Perform(1, line, 0)
	c.ord.Commit(2)
	c.ord.Squash(1)
}
