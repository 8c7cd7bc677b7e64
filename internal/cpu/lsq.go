package cpu

import (
	"slices"

	"wbsim/internal/coherence"
	"wbsim/internal/mem"
	"wbsim/internal/ordering"
	"wbsim/internal/sim"
)

// This file implements the memory side of the core: load issue under TSO,
// store-to-load forwarding, the store buffer and atomics. Every lockdown
// decision is the core's ordering.LoadOrder's; the core does the timing.

// HasLockdown implements coherence.CoreHooks.
func (c *Core) HasLockdown(line mem.Line) bool { return c.ord.HasLockdown(line) }

// loadSlot returns the window slot of the i'th oldest in-flight load.
func (c *Core) loadSlot(i int) *DynInstr { return &c.slots[c.ord.Loads()[i].Slot] }

// onOrderingChange must run whenever the performed/ordered picture of the
// LQ can have changed: it sends the delayed Acks of the lockdowns that
// lifted, and lets the (possibly new) SoS load retry or bypass.
func (c *Core) onOrderingChange() {
	for _, line := range c.ord.Lift() {
		c.pcu.LockdownLifted(c.now, line)
	}
	if sos, _ := c.ord.SoS(); sos < len(c.ord.Loads()) {
		c.privilegeSoS(sos)
	}
}

// privilegeSoS gives the SoS load, the i'th oldest, its privileges: an
// issued miss may bypass a blocked write, and a load that received an
// unusable tear-off copy re-issues now that it is ordered. (An atomic,
// or a load whose address has not resolved, has neither flag set.)
func (c *Core) privilegeSoS(i int) {
	d := c.loadSlot(i)
	switch {
	case d.lq.issued:
		c.pcu.PromoteSoS(c.now, d.seq, d.lq.addr)
	case d.lq.needRetry:
		d.lq.needRetry = false
		res := c.pcu.Load(c.now, d.seq, d.lq.addr, true)
		switch res.Status {
		case coherence.LoadHit:
			c.performLoad(i, res.Value, 0, res.DoneAt-c.now)
		case coherence.LoadPending:
			d.lq.issued = true
		case coherence.LoadNoMSHR:
			d.lq.needRetry = true // try again next cycle
		}
	}
}

// ---------------------------------------------------------------------
// Memory issue
// ---------------------------------------------------------------------

// tryMemoryIssue walks the LQ attempting to issue address-ready loads and
// the atomic at the ROB head.
func (c *Core) tryMemoryIssue() {
	sos, _ := c.ord.SoS()
	// An atomic is a full fence: forwarding from stores older than a
	// pending atomic is forbidden (the store will be globally performed
	// before the atomic, so the load must read memory). fence is the
	// youngest pending atomic passed, or 0; tryAtomic can perform it.
	// Every load before the SoS load has performed, so the walk starts
	// there. l points into the LoadOrder, so it sees a perform at once.
	var fence uint64
	loads := c.ord.Loads()
	for i := sos; i < len(loads); i++ {
		l := &loads[i]
		if l.Performed {
			continue
		}
		d := &c.slots[l.Slot]
		e := &d.lq
		if l.Atomic {
			c.tryAtomic(d)
			if !l.Performed {
				fence = l.Seq
			}
			continue
		}
		if !e.addrValid {
			continue
		}
		ordered := i == sos // every older load has performed
		if e.issued || e.needRetry {
			if ordered {
				c.privilegeSoS(i)
			}
			continue
		}
		// Store-to-load forwarding (TSO: loads bypass the SB but take a
		// matching store's value).
		value, fwdSeq, status := c.forwardLookup(d, fence)
		//wbsim:partial(fwdMiss) -- a miss falls through to issue the load to memory
		switch status {
		case fwdHit:
			c.Stats.Forwards++
			c.performLoad(i, value, fwdSeq, sim.Cycle(c.cfg.ForwardLatency))
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
		if !ordered && slices.Contains(c.ord.Seen(), mem.LineOf(e.addr)) {
			continue
		}
		res := c.pcu.Load(c.now, d.seq, e.addr, ordered)
		switch res.Status {
		case coherence.LoadHit:
			c.performLoad(i, res.Value, 0, res.DoneAt-c.now)
			return
		case coherence.LoadPending:
			e.issued = true
		case coherence.LoadNoMSHR:
			// structural stall; retry next cycle
		}
	}
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
func (c *Core) forwardLookup(d *DynInstr, fenceSeq uint64) (mem.Word, uint64, fwdStatus) {
	for i := len(c.sq) - 1; i >= c.sqHead; i-- {
		s := c.sq[i]
		if s.d.seq >= d.seq {
			continue
		}
		if !s.addrValid {
			continue // D-speculation past an unresolved store address
		}
		if s.addr != d.lq.addr {
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
		if s.addr == d.lq.addr {
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
// younger one) mis-speculated and must replay from the oldest such load.
func (c *Core) memDepCheck(s *sqEntry) {
	for _, l := range c.ord.Loads() {
		if l.Seq > s.d.seq && l.Performed && l.FwdSeq < s.d.seq && c.slots[l.Slot].lq.addr == s.addr {
			c.squashLoad(l, &c.Stats.SquashMemDep)
			return
		}
	}
}

// performLoad binds the value of the i'th oldest load (architecturally
// visible now) and schedules its completion (dependent wakeup) after wake
// cycles.
func (c *Core) performLoad(i int, value mem.Word, fwdSeq uint64, wake sim.Cycle) {
	d := c.loadSlot(i)
	d.lq.issued = false
	if c.ord.Perform(i, mem.LineOf(d.lq.addr), fwdSeq) {
		c.Stats.LockdownsSet++ // locked down, or squashable without lockdowns
	}
	c.events.after(c.now, max(wake, 1), evComplete, d, value)
	c.onOrderingChange()
}

// tryAtomic issues the atomic d at the ROB head once the store buffer has
// drained (TSO: the load of an atomic may not bypass buffered stores).
func (c *Core) tryAtomic(d *DynInstr) {
	e := &d.lq
	if e.atomicGo || !e.addrValid {
		return
	}
	if c.robOldest() != d {
		return
	}
	if c.sbLen() > 0 {
		return
	}
	if c.pcu.AtomicExec(c.now, d.seq, e.addr, d.si.Fn, d.src2Val) {
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
	i, ok := c.ord.Pending(token)
	if !ok || !c.loadSlot(i).lq.addrValid {
		return // squashed (or already bound via forwarding)
	}
	if tearoff {
		if sos, _ := c.ord.SoS(); i == sos {
			c.Stats.TearoffsBound++
			c.performLoad(i, value, 0, 1)
			return
		}
		c.Stats.TearoffRetries++
		d := c.loadSlot(i)
		d.lq.issued, d.lq.needRetry = false, true
		return
	}
	c.performLoad(i, value, 0, 1)
}

// AtomicDone implements coherence.CoreHooks: the RMW performed, old value
// delivered.
func (c *Core) AtomicDone(now sim.Cycle, token uint64, old mem.Word) {
	c.now = now
	if i, ok := c.ord.Pending(token); ok && c.loadSlot(i).lq.addrValid {
		c.performLoad(i, old, 0, sim.Cycle(c.cfg.ForwardLatency))
	}
}

// WritePerformed implements coherence.CoreHooks. The store buffer polls
// every cycle, so no action is needed beyond waking the drain on the next
// tick (which happens naturally).
func (c *Core) WritePerformed(now sim.Cycle, line mem.Line) {}

// OnInvalidation implements coherence.CoreHooks: an invalidation for line
// reached this core. In lockdown mode a matching lockdown withholds the
// ack: the S bit is recorded and true (Nack) is returned. Otherwise the
// invalidation is acknowledged and squashes the load that
// ordering.LoadOrder.Invalidate names, with everything younger.
func (c *Core) OnInvalidation(now sim.Cycle, line mem.Line) bool {
	c.now = now
	victim, nack := c.ord.Invalidate(line)
	stat := &c.Stats.SquashInv
	if c.cfg.Lockdown {
		stat = &c.Stats.SquashAtomic
	}
	c.squashLoad(victim, stat)
	return nack
}

// OnOwnedEviction implements coherence.CoreHooks: a non-silent eviction
// removes the core from the sharer list, so no future invalidation for
// the line will arrive. In squash mode every matching M-speculative load
// must conservatively squash (Section 3.8). In lockdown mode only the
// atomic-speculative loads depend on invalidation-squash (lockdowns keep
// their lines registered via PutS), so those squash here.
func (c *Core) OnOwnedEviction(now sim.Cycle, line mem.Line) {
	c.now = now
	stat := &c.Stats.SquashEvict
	if c.cfg.Lockdown {
		stat = &c.Stats.SquashAtomic
	}
	c.squashLoad(c.ord.Evict(line), stat)
}

// squashLoad squashes load l, if any, and everything younger, counting
// it in stat.
func (c *Core) squashLoad(l ordering.Load, stat *uint64) {
	if l.Seq != 0 {
		*stat++
		c.squashFrom(l.Seq, c.slots[l.Slot].pc, c.cfg.MispredictPenalty)
	}
}
