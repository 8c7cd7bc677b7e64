package cpu

import (
	"fmt"

	"wbsim/internal/coherence"
	"wbsim/internal/mem"
	"wbsim/internal/sim"
)

// This file implements the memory side of the core: load issue under TSO,
// store-to-load forwarding, the store buffer, atomics, and the lockdown
// machinery (M-speculative tracking, S bits, the Lockdown Table).

// sosIndex returns the index of the Source-of-Speculation load: the
// oldest non-performed entry (len(lq) if all performed). Loads at indices
// < sosIndex are completed; the entry at sosIndex is the SoS load;
// performed entries beyond it are M-speculative (Table 5). A load never
// unperforms, so the index is kept in lqSoS and only walked forward from
// there.
func (c *Core) sosIndex() int {
	for c.lqSoS < len(c.lq) && c.lq[c.lqSoS].performed {
		c.lqSoS++
	}
	return c.lqSoS
}

// lqSearch returns the LQ index of the load (or atomic) with the given
// seq, or of the oldest younger one if it is not in flight (len(lq) if
// none is). The LQ is in program order, so a binary search finds it.
func (c *Core) lqSearch(seq uint64) int {
	lo, hi := 0, len(c.lq)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.lq[m].d.seq < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// lqBySeq returns the LQ entry of the load (or atomic) with the given seq
// — its memory token — if that load is still in flight and its address
// has resolved, or nil.
func (c *Core) lqBySeq(seq uint64) *lqEntry {
	if i := c.lqSearch(seq); i < len(c.lq) && c.lq[i].d.seq == seq && c.lq[i].addrValid {
		return c.lq[i]
	}
	return nil
}

// isOrdered reports whether every load older than e has performed.
func (c *Core) isOrdered(e *lqEntry) bool {
	return e.d.seq <= c.oldestUnperformedLoad()
}

// hasLockdownLQ reports whether an M-speculative load in the LQ matches
// line. Two classes of performed-out-of-order loads are exempt:
//
//   - store-forwarded loads (fwdSeq != 0): they read their own core's
//     store early (TSO's one legal relaxation); no other core can "see"
//     them, so they neither lock down nor need squashing;
//   - loads younger than a pending atomic: Section 3.7 forbids lockdowns
//     past an atomic (its write can block in WritersBlock, so such a
//     lockdown could deadlock). These loads are issued speculatively and
//     fall back to squash-and-re-execute when an invalidation hits them.
func (c *Core) hasLockdownLQ(line mem.Line) bool {
	fence := c.oldestPendingAtomicSeq()
	sos := c.sosIndex()
	for i := sos + 1; i < len(c.lq); i++ {
		e := c.lq[i]
		if e.performed && e.addrValid && e.line == line && e.fwdSeq == 0 && e.d.seq < fence {
			return true
		}
	}
	return false
}

// oldestPendingAtomicSeq returns the seq of the oldest non-performed
// atomic in the LQ, or MaxUint64 if none. Loads younger than it are
// "atomic-speculative": they may not lock down or commit. Every entry
// before the SoS load has performed, so the search starts there.
func (c *Core) oldestPendingAtomicSeq() uint64 {
	for _, e := range c.lq[c.sosIndex():] {
		if e.isAtomic && !e.performed {
			return e.d.seq
		}
	}
	return ^uint64(0)
}

// hasLockdownLDT reports whether an exported lockdown matches line.
func (c *Core) hasLockdownLDT(line mem.Line) bool {
	for i := range c.ldt {
		if c.ldt[i].line == line {
			return true
		}
	}
	return false
}

// HasLockdown implements coherence.CoreHooks.
func (c *Core) HasLockdown(line mem.Line) bool {
	return c.hasLockdownLQ(line) || c.hasLockdownLDT(line)
}

// markSeen records that an invalidation hit a lockdown for line (the S
// bit of the paper, kept per line: the delayed Ack is owed when the last
// lockdown for the line lifts).
func (c *Core) markSeen(line mem.Line) {
	for _, l := range c.seenLines {
		if l == line {
			return
		}
	}
	c.seenLines = append(c.seenLines, line)
}

// seen reports whether line has a pending (withheld) invalidation ack.
func (c *Core) seen(line mem.Line) bool {
	for _, l := range c.seenLines {
		if l == line {
			return true
		}
	}
	return false
}

// resolveLockdowns sends the delayed Ack for every seen line whose last
// lockdown has lifted.
func (c *Core) resolveLockdowns() {
	if len(c.seenLines) == 0 {
		return
	}
	kept := c.seenLines[:0]
	for _, line := range c.seenLines {
		if c.HasLockdown(line) {
			kept = append(kept, line)
		} else {
			c.pcu.LockdownLifted(c.now, line)
		}
	}
	c.seenLines = kept
}

// onOrderingChange must run whenever the performed/ordered picture of the
// LQ can have changed: it frees the LDT entries of exported loads that
// have become ordered, lifts lockdowns, and lets the (possibly new) SoS
// load retry or bypass.
func (c *Core) onOrderingChange() {
	sos := c.sosIndex()
	// An exported lockdown holds until its load would have become
	// ordered: until no older load is unperformed (Section 4.2).
	oldest, live := c.oldestUnperformedLoad(), c.ldt[:0]
	for _, l := range c.ldt {
		if l.seq > oldest {
			live = append(live, l)
		}
	}
	c.ldt = live
	c.resolveLockdowns()
	// Give the SoS load its privileges.
	if sos < len(c.lq) {
		e := c.lq[sos]
		if e.addrValid && !e.isAtomic {
			if e.needRetry {
				c.retryLoad(e)
			} else if e.issued {
				c.pcu.PromoteSoS(c.now, e.d.seq, e.addr)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Memory issue
// ---------------------------------------------------------------------

// tryMemoryIssue walks the LQ attempting to issue address-ready loads and
// the atomic at the ROB head.
func (c *Core) tryMemoryIssue() {
	sos := c.sosIndex()
	for i, e := range c.lq {
		if e.isAtomic {
			c.tryAtomic(e)
			continue
		}
		if !e.addrValid || e.performed {
			continue
		}
		ordered := i <= sos
		if e.issued {
			if i == sos {
				c.pcu.PromoteSoS(c.now, e.d.seq, e.addr)
			}
			continue
		}
		if e.needRetry {
			if ordered {
				c.retryLoad(e)
			}
			continue
		}
		// An atomic is a full fence: forwarding from stores older than a
		// pending atomic is forbidden (the store will be globally
		// performed before the atomic, so the load must read memory).
		atomicSeq := c.youngestOlderAtomicSeq(i)
		// Store-to-load forwarding (TSO: loads bypass the SB but take a
		// matching store's value).
		value, fwdSeq, status := c.forwardLookup(e, atomicSeq)
		//wbsim:partial(fwdMiss) -- a miss falls through to issue the load to memory
		switch status {
		case fwdHit:
			c.Stats.Forwards++
			c.performLoad(e, value, fwdSeq, sim.Cycle(c.cfg.ForwardLatency))
			// performLoad may reshuffle ordering; restart conservatively.
			return
		case fwdWait:
			c.Stats.MemDepWait++
			continue
		}
		// Loads younger than a pending atomic issue speculatively in all
		// modes (the paper's "if the underlying core supports
		// squash-and-re-execute" default); they are barred from
		// lockdowns and from committing until the atomic performs, and
		// an invalidation squashes them even in lockdown mode.
		// A new unordered load is not issued for a line with a lockdown
		// whose invalidation already arrived; it would only receive an
		// unusable tear-off copy (Section 3.4 optimization).
		if !ordered && c.seen(e.line) {
			continue
		}
		res := c.pcu.Load(c.now, e.d.seq, e.addr, ordered)
		switch res.Status {
		case coherence.LoadHit:
			c.performLoad(e, res.Value, 0, res.DoneAt-c.now)
			return
		case coherence.LoadPending:
			e.issued = true
		case coherence.LoadNoMSHR:
			// structural stall; retry next cycle
		}
	}
}

// retryLoad re-issues a load that received an unusable tear-off copy, now
// that it is ordered.
func (c *Core) retryLoad(e *lqEntry) {
	e.needRetry = false
	res := c.pcu.Load(c.now, e.d.seq, e.addr, true)
	switch res.Status {
	case coherence.LoadHit:
		c.performLoad(e, res.Value, 0, res.DoneAt-c.now)
	case coherence.LoadPending:
		e.issued = true
	case coherence.LoadNoMSHR:
		e.needRetry = true // try again next cycle
	}
}

// youngestOlderAtomicSeq returns the seq of the youngest non-performed
// atomic older than LQ index i, or 0 if none.
func (c *Core) youngestOlderAtomicSeq(i int) uint64 {
	for j := i - 1; j >= 0; j-- {
		if c.lq[j].isAtomic && !c.lq[j].performed {
			return c.lq[j].d.seq
		}
	}
	return 0
}

type fwdStatus int

const (
	fwdMiss fwdStatus = iota // no matching older store: go to memory
	fwdHit                   // value forwarded
	fwdWait                  // matching older store's data not ready yet
)

// forwardLookup searches the SQ (uncommitted stores) and SB (committed
// stores) for the youngest store older than the load that writes the same
// word. Unresolved store addresses are speculatively ignored
// (D-speculation); the violation check on store address resolve squashes
// mis-speculated loads.
// fenceSeq is the seq of the youngest pending atomic older than the load:
// a matching store at or before the fence cannot forward (the load must
// wait and read memory after the fence performs).
func (c *Core) forwardLookup(e *lqEntry, fenceSeq uint64) (mem.Word, uint64, fwdStatus) {
	for i := len(c.sq) - 1; i >= c.sqHead; i-- {
		s := c.sq[i]
		if s.d.seq >= e.d.seq {
			continue
		}
		if !s.addrValid {
			continue // D-speculation past an unresolved store address
		}
		if s.addr != e.addr {
			continue
		}
		if s.d.seq < fenceSeq {
			return 0, 0, fwdWait
		}
		if !s.valueValid {
			return 0, 0, fwdWait
		}
		return s.value, s.d.seq, fwdHit
	}
	for i := len(c.sb) - 1; i >= c.sbHead; i-- {
		s := c.sb[i]
		if s.addr == e.addr {
			if s.seq < fenceSeq {
				return 0, 0, fwdWait
			}
			return s.value, s.seq, fwdHit
		}
	}
	return 0, 0, fwdMiss
}

// memDepCheck runs when a store's address resolves: any younger performed
// load on the same word that did not take its value from this store (or a
// younger one) mis-speculated and must replay.
func (c *Core) memDepCheck(s *sqEntry) {
	var victim *lqEntry
	for _, e := range c.lq {
		if e.d.seq <= s.d.seq || !e.performed || !e.addrValid {
			continue
		}
		if e.addr == s.addr && e.fwdSeq < s.d.seq {
			if victim == nil || e.d.seq < victim.d.seq {
				victim = e
			}
		}
	}
	if victim != nil {
		c.Stats.SquashMemDep++
		c.squashFrom(victim.d.seq, victim.d.pc, c.cfg.MispredictPenalty)
	}
}

// performLoad binds the load's value (architecturally visible now) and
// schedules its completion (dependent wakeup) after wake cycles.
func (c *Core) performLoad(e *lqEntry, value mem.Word, fwdSeq uint64, wake sim.Cycle) {
	if e.performed {
		panic(fmt.Sprintf("cpu %d: double perform of %v", c.ID, e.d))
	}
	e.performed = true
	e.issued = false
	e.value = value
	e.fwdSeq = fwdSeq
	if fwdSeq == 0 && !c.isOrdered(e) {
		// The load performed out of order from memory: it enters
		// lockdown (in lockdown mode) or becomes squashable (in squash
		// mode). Store-forwarded loads are exempt (own-store values
		// cannot be seen by other cores).
		c.Stats.LockdownsSet++
	}
	d := e.d
	if wake < 1 {
		wake = 1
	}
	c.events.after(c.now, wake, evComplete, d, value)
	c.onOrderingChange()
}

// tryAtomic issues the atomic at the ROB head once the store buffer has
// drained (TSO: the load of an atomic may not bypass buffered stores).
func (c *Core) tryAtomic(e *lqEntry) {
	if e.performed || e.atomicGo || !e.addrValid {
		return
	}
	if c.robOldest() != e.d {
		return
	}
	if c.sbLen() > 0 {
		return
	}
	if c.pcu.AtomicExec(c.now, e.d.seq, e.addr, e.d.si.Fn, e.d.src2Val) {
		e.atomicGo = true
	}
}

// drainSB writes the store at the head of the store buffer into the
// cache once write permission is held (one store per cycle).
func (c *Core) drainSB() {
	if c.sbLen() == 0 {
		return
	}
	head := c.sb[c.sbHead]
	if c.pcu.StoreWrite(c.now, head.addr, head.value) {
		c.sbHead++
		// Rewind the ring when drained so the backing array is reused.
		if c.sbHead == len(c.sb) {
			c.sb = c.sb[:0]
			c.sbHead = 0
		}
	}
}

// ---------------------------------------------------------------------
// coherence.CoreHooks
// ---------------------------------------------------------------------

// The core implements both halves of the PCU's hook seam: value
// delivery (DataHooks) and the invalidation/eviction ordering callbacks
// (OrderingHooks).
var (
	_ coherence.DataHooks     = (*Core)(nil)
	_ coherence.OrderingHooks = (*Core)(nil)
	_ coherence.CoreHooks     = (*Core)(nil)
)

// LoadDone implements coherence.CoreHooks: a missing load's value
// arrives. Tear-off values bind only for ordered loads; unordered loads
// must retry once ordered (Section 3.4).
func (c *Core) LoadDone(now sim.Cycle, token uint64, value mem.Word, tearoff bool) {
	c.now = now
	e := c.lqBySeq(token)
	if e == nil || e.performed {
		return // squashed (or already bound via forwarding)
	}
	if tearoff {
		if c.isOrdered(e) {
			c.Stats.TearoffsBound++
			c.performLoad(e, value, 0, 1)
			return
		}
		c.Stats.TearoffRetries++
		e.issued = false
		e.needRetry = true
		return
	}
	c.performLoad(e, value, 0, 1)
}

// AtomicDone implements coherence.CoreHooks: the RMW performed, old value
// delivered.
func (c *Core) AtomicDone(now sim.Cycle, token uint64, old mem.Word) {
	c.now = now
	e := c.lqBySeq(token)
	if e == nil || e.performed {
		return
	}
	c.performLoad(e, old, 0, sim.Cycle(c.cfg.ForwardLatency))
}

// WritePerformed implements coherence.CoreHooks. The store buffer polls
// every cycle, so no action is needed beyond waking the drain on the next
// tick (which happens naturally).
func (c *Core) WritePerformed(now sim.Cycle, line mem.Line) {}

// OnInvalidation implements coherence.CoreHooks: an invalidation for line
// reached this core. In squash mode, M-speculative loads matching the
// line are squashed (with everything younger) and the invalidation is
// acknowledged. In lockdown mode, a matching lockdown withholds the ack:
// the S bit is recorded and true (Nack) is returned.
func (c *Core) OnInvalidation(now sim.Cycle, line mem.Line) bool {
	c.now = now
	if c.cfg.Lockdown {
		if c.HasLockdown(line) {
			c.markSeen(line)
			return true
		}
		// Loads that performed speculatively past a pending atomic are
		// not covered by lockdowns (Section 3.7): they default to
		// squash-and-re-execute.
		c.squashAtomicSpec(line)
		return false
	}
	c.squashMSpec(line, true)
	return false
}

// squashAtomicSpec squashes the oldest performed load matching line that
// speculated past a pending atomic (lockdown mode only).
func (c *Core) squashAtomicSpec(line mem.Line) {
	fence := c.oldestPendingAtomicSeq()
	for _, e := range c.lq {
		if e.performed && e.addrValid && e.line == line && e.fwdSeq == 0 && e.d.seq > fence {
			c.Stats.SquashAtomic++
			c.squashFrom(e.d.seq, e.d.pc, c.cfg.MispredictPenalty)
			return
		}
	}
}

// OnOwnedEviction implements coherence.CoreHooks: a non-silent eviction
// removes the core from the sharer list, so no future invalidation for
// the line will arrive. In squash mode every matching M-speculative load
// must conservatively squash (Section 3.8). In lockdown mode only the
// atomic-speculative loads depend on invalidation-squash (lockdowns keep
// their lines registered via PutS), so those squash here.
func (c *Core) OnOwnedEviction(now sim.Cycle, line mem.Line) {
	c.now = now
	if !c.cfg.Lockdown {
		c.squashMSpec(line, false)
		return
	}
	c.squashAtomicSpec(line)
}

// squashMSpec squashes the oldest M-speculative load matching line (and
// everything younger).
func (c *Core) squashMSpec(line mem.Line, inv bool) {
	sos := c.sosIndex()
	for i := sos + 1; i < len(c.lq); i++ {
		e := c.lq[i]
		if e.performed && e.addrValid && e.line == line && e.fwdSeq == 0 {
			if inv {
				c.Stats.SquashInv++
			} else {
				c.Stats.SquashEvict++
			}
			c.squashFrom(e.d.seq, e.d.pc, c.cfg.MispredictPenalty)
			return
		}
	}
}
