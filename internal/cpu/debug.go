package cpu

import (
	"fmt"
	"strings"
)

// DumpState renders the core's pipeline state for debugging stuck runs.
func (c *Core) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core %d: halted=%v fetchPC=%d rob=%d lq=%d sq=%d sb=%d iq=%d ready=%d seen=%v\n",
		c.ID, c.halted, c.fetchPC, c.robLen(), len(c.lq), c.sqLen(), c.sbLen(), c.iqCount, c.readyLen(), c.seenLines)
	i := 0
	for p := c.robHead; p < c.robTail; p++ {
		d := c.rob[p&c.robMask]
		if d == nil {
			continue // committed out of order
		}
		if i >= 8 {
			fmt.Fprintf(&b, "  ... %d more\n", c.robLen()-i)
			break
		}
		fmt.Fprintf(&b, "  rob[%d] %v state=%d pend=%d\n", i, d, d.state, d.pendingIssue)
		i++
	}
	for i, e := range c.lq {
		fmt.Fprintf(&b, "  lq[%d] %v addrV=%v perf=%v issued=%v retry=%v atomic=%v(go=%v)\n",
			i, e.d, e.addrValid, e.performed, e.issued, e.needRetry, e.isAtomic, e.atomicGo)
	}
	for i, s := range c.sb[c.sbHead:] {
		fmt.Fprintf(&b, "  sb[%d] seq=%d addr=%v\n", i, s.seq, s.addr)
	}
	for i, l := range c.ldt {
		fmt.Fprintf(&b, "  ldt[%d] seq=%d line=%v\n", i, l.seq, l.line)
	}
	return b.String()
}

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

// CommitTrace, when enabled via EnableCommitTrace, records the last N
// committed instructions (pc, seq, result) for debugging.
type CommitTrace struct {
	PC     int
	Seq    uint64
	Result uint64
}

// EnableCommitTrace turns on commit tracing with a ring of n entries.
func (c *Core) EnableCommitTrace(n int) {
	c.traceRing = make([]CommitTrace, 0, n)
	c.traceCap = n
}

// Trace returns the recorded ring (oldest first).
func (c *Core) Trace() []CommitTrace { return c.traceRing }

func (c *Core) traceCommit(d *DynInstr) {
	if c.traceCap == 0 {
		return
	}
	if len(c.traceRing) == c.traceCap {
		copy(c.traceRing, c.traceRing[1:])
		c.traceRing = c.traceRing[:c.traceCap-1]
	}
	c.traceRing = append(c.traceRing, CommitTrace{PC: d.pc, Seq: d.seq, Result: uint64(d.result)})
}
