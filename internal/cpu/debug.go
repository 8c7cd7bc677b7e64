package cpu

import "fmt"

// Snapshot captures the core's commit-path state for hang reports: queue
// occupancies, progress counters, and the oldest ROB entry (the commit
// blocker) rendered for a human.
type Snapshot struct {
	ID        int
	Halted    bool
	Done      bool
	Committed uint64
	FetchPC   int
	ROB       int
	LQ        int
	SQ        int
	SB        int
	IQ        int
	Lockdowns int    // live LDT entries (exported lockdown windows)
	OldestROB string // rendering of the oldest ROB entry, "" when the ROB is empty
	OldestLQ  string // rendering of lq[0], "" when the LQ is empty
}

// String renders the snapshot on one line.
func (s Snapshot) String() string {
	line := fmt.Sprintf("core %d: committed=%d halted=%v done=%v rob=%d lq=%d sq=%d sb=%d iq=%d ldt=%d fetchPC=%d",
		s.ID, s.Committed, s.Halted, s.Done, s.ROB, s.LQ, s.SQ, s.SB, s.IQ, s.Lockdowns, s.FetchPC)
	if s.OldestROB != "" {
		line += "\n  oldest rob: " + s.OldestROB
	}
	if s.OldestLQ != "" {
		line += "\n  oldest lq:  " + s.OldestLQ
	}
	return line
}

// Snapshot captures the core's current state (cheap; for diagnostics).
func (c *Core) Snapshot() Snapshot {
	s := Snapshot{
		ID:        c.ID,
		Halted:    c.halted,
		Done:      c.Done(),
		Committed: c.Stats.Committed,
		FetchPC:   c.fetchPC,
		ROB:       c.robLen(),
		LQ:        len(c.lq),
		SQ:        c.sqLen(),
		SB:        c.sbLen(),
		IQ:        c.iqCount,
		Lockdowns: len(c.ldt),
	}
	if d := c.robOldest(); d != nil {
		s.OldestROB = fmt.Sprintf("%v state=%d pend=%d", d, d.state, d.pendingIssue)
	}
	if len(c.lq) > 0 {
		e := c.lq[0]
		s.OldestLQ = fmt.Sprintf("%v addrV=%v perf=%v issued=%v retry=%v", e.d, e.addrValid, e.performed, e.issued, e.needRetry)
	}
	return s
}
