package cpu

import (
	"fmt"
	"math/bits"

	"wbsim/internal/isa"
)

// commit retires up to CommitWidth instructions according to the commit
// policy. In-order commit retires from the ROB head while the head can
// commit. Out-of-order commit visits the completed instructions in
// program order from the head, through the done bitmap (which leaves
// out stores behind an older store: canCommit refuses them), and asks
// canCommit about each with the prefix flags (the Bell-Lipasti
// conditions that depend on older instructions):
//
//  1. completed                          — per instruction
//  2. register WAR hazards resolved      — structural in this model:
//     operand values are captured in the ROB, so a commit never destroys
//     a value an older instruction still needs
//  3. older branches resolved            — branchesOK
//  4. older store addresses resolved     — storesOK
//  5. no older instruction will raise an exception — the ISA has none
//  6. consistency: older loads performed — loadsOK (relaxed by ooo-wb)
//
// The flags come from the oldest blocker of each condition instead of a
// walk over every older instruction. Conditions 3 and 4 gate every
// younger instruction, so the visits stop at the oldest unresolved
// branch or jump or unresolved store address, and before it both flags
// hold. loadsOK and atomicsOK fail from the first visit younger than the
// oldest unperformed load (atomic) and stay failed for the rest of the
// call, as a walk that passed that load would have it; olderStorePending
// holds while the SQ head is older. A load committing can perform others
// (onOrderingChange), so the load blockers are re-read after one does.
// Tests check every decision against a walk from the head (scanOracle).
func (c *Core) commit() int {
	var committed int
	if c.cfg.CommitMode == CommitInOrder {
		committed = c.commitInOrder()
	} else {
		committed = c.commitOutOfOrder()
	}
	c.Stats.Committed += uint64(committed)
	return committed
}

func (c *Core) commitInOrder() int {
	check := c.checkScan
	var o scanOracle
	if check {
		o.begin(c)
	}
	n, width, stop := 0, c.cfg.CommitWidth, noSeq
	for n < width {
		d := c.robOldest()
		if d == nil {
			break
		}
		if check {
			o.visit(d, true, true, false)
		}
		ok := c.canCommit(d, true, true, true, true, true, false)
		if check {
			o.visited(d, ok)
		}
		if !ok {
			stop = d.seq
			break
		}
		c.retire(d, true)
		n++
	}
	if check {
		o.finish(n == width, stop)
	}
	return n
}

func (c *Core) commitOutOfOrder() int {
	check := c.checkScan
	var o scanOracle
	if check {
		o.begin(c)
	}
	// The head has nothing older, so it passes every prefix condition:
	// stop is read at the first visit behind the head. The load blockers
	// are read when first needed and again after a load commits; atBlock
	// matters only once loadsOK has failed, since an unperformed atomic
	// is an unperformed load too. sqOldest is re-read after a store
	// commits.
	blocked := false // stop is read
	stop, sqOldest := noSeq, c.oldestStore()
	ldBlock, atBlock, ldFresh, atFresh := noSeq, noSeq, false, false
	loadsOK, atomicsOK := true, true
	n, width := 0, c.cfg.CommitWidth
	for p := c.nextDone(c.robHead); p < c.robTail && n < width; p = c.nextDone(p + 1) {
		d := c.rob[p&c.robMask]
		head := p == c.robHead
		if !head {
			if !blocked {
				stop, blocked = c.commitStop(), true
			}
			if d.seq >= stop {
				break
			}
			if loadsOK {
				if !ldFresh {
					ldBlock, ldFresh = c.oldestUnperformedLoad(), true
				}
				loadsOK = d.seq < ldBlock
			}
			if !loadsOK && atomicsOK {
				if !atFresh {
					atBlock, atFresh = c.oldestPendingAtomicSeq(), true
				}
				atomicsOK = d.seq < atBlock
			}
		}
		olderStorePending := sqOldest < d.seq
		if check {
			o.visit(d, loadsOK, atomicsOK, olderStorePending)
		}
		ok := c.canCommit(d, head, true, true, loadsOK, atomicsOK, olderStorePending)
		if check {
			o.visited(d, ok)
		}
		if ok {
			op := d.op
			c.retire(d, head)
			n++
			//wbsim:partial(OpNop, OpALU, OpBranch, OpJump, OpHalt) -- only memory ops move a blocker
			switch op {
			case isa.OpLoad, isa.OpAtomic:
				ldFresh, atFresh = false, false
			case isa.OpStore:
				sqOldest = c.oldestStore()
			}
		}
	}
	if check && !blocked {
		stop = c.commitStop()
	}
	if check {
		o.finish(n == width, stop)
	}
	return n
}

// commitStop returns the seq of the oldest unresolved branch, jump or
// store address (noSeq if none): conditions 3 and 4 stop commit there.
func (c *Core) commitStop() uint64 {
	return min(c.oldestUnresolvedBranch(), c.oldestUnaddressedStore())
}

// retire commits d and takes it out of the ROB, leaving a tombstone
// unless d is the head, which then steps over the tombstones behind it.
func (c *Core) retire(d *DynInstr, head bool) {
	c.commitOne(d, head)
	c.rob[d.pos&c.robMask] = nil
	c.robLive--
	if head {
		for c.robHead < c.robTail && c.rob[c.robHead&c.robMask] == nil {
			c.robHead++
		}
	}
	c.release(d)
}

// nextDone returns the position of the first completed instruction at
// or after position p, or robTail if there is none.
func (c *Core) nextDone(p uint64) uint64 {
	done, mask, tail := c.done, c.robMask, c.robTail
	for p < tail {
		i := p & mask
		if w := done[i>>6] >> (i & 63); w != 0 {
			return min(p+uint64(bits.TrailingZeros64(w)), tail)
		}
		p += 64 - i&63
	}
	return tail
}

// noSeq stands for "no such instruction" where a blocker's seq is
// compared: every in-flight instruction is older.
const noSeq = ^uint64(0)

// pushBranch appends a dispatched branch or jump to the branch FIFO. The
// FIFO holds the in-flight branches and jumps from the oldest unresolved
// one on (branchResolved pops its front, a squash trims its back), so it
// never holds more than the ROB does.
func (c *Core) pushBranch(d *DynInstr) {
	if c.brTail-c.brHead == uint64(len(c.branches)) {
		panic(fmt.Sprintf("cpu %d: branch FIFO full with %d instructions in the ROB", c.ID, c.robLen()))
	}
	c.branches[c.brTail&uint64(len(c.branches)-1)] = ref(d)
	c.brTail++
}

// branchResolved pops the branch FIFO's front if d, which has just
// resolved, is the front, and with it the resolved entries behind it.
// Those are still in flight: none can commit before the front resolves.
func (c *Core) branchResolved(d *DynInstr) {
	mask := uint64(len(c.branches) - 1)
	if c.brHead == c.brTail || c.branches[c.brHead&mask].d != d {
		return
	}
	for c.brHead++; c.brHead < c.brTail && c.branches[c.brHead&mask].d.resolved; c.brHead++ {
	}
}

// oldestUnresolvedBranch returns the seq of the oldest unresolved branch
// or jump in flight (noSeq if none).
func (c *Core) oldestUnresolvedBranch() uint64 {
	if c.brHead == c.brTail {
		return noSeq
	}
	return c.branches[c.brHead&uint64(len(c.branches)-1)].seq
}

// oldestUnaddressedStore returns the seq of the oldest store whose
// address has not resolved (noSeq if none), extending sqAddrOK.
func (c *Core) oldestUnaddressedStore() uint64 {
	live := c.sqLive()
	for c.sqAddrOK < len(live) && live[c.sqAddrOK].addrValid {
		c.sqAddrOK++
	}
	if c.sqAddrOK < len(live) {
		return live[c.sqAddrOK].d.seq
	}
	return noSeq
}

// oldestUnperformedLoad returns the seq of the oldest unperformed load
// or atomic in the LQ (noSeq if none): the SoS load.
func (c *Core) oldestUnperformedLoad() uint64 {
	if i := c.sosIndex(); i < len(c.lq) {
		return c.lq[i].d.seq
	}
	return noSeq
}

// oldestStore returns the seq of the oldest store in the SQ (noSeq if
// none).
func (c *Core) oldestStore() uint64 {
	if c.sqLen() == 0 {
		return noSeq
	}
	return c.sq[c.sqHead].d.seq
}

// scanOracle replays the scanning commit beside the indexed one when
// Core.checkScan is set (tests only). Its walk visits the window from
// the head in program order. An instruction still in flight when the
// walk passes it did not commit in this call, so it adds to the prefix
// flags, and the walk stops where the scan stopped: at an unresolved
// branch or jump or store address, and in in-order mode at the first
// instruction that does not commit. Each completed instruction the walk
// reaches must be the indexed commit's next visit, with the same flags,
// and the walk must stop where the indexed commit did. Disagreements
// count in Core.scanMismatches.
type scanOracle struct {
	c                                                           *Core
	pos                                                         uint64 // next position the walk visits
	branchesOK, storesOK, loadsOK, atomicsOK, olderStorePending bool
	stopped                                                     bool
	stop                                                        uint64 // seq the walk stopped at
}

func (o *scanOracle) begin(c *Core) {
	*o = scanOracle{c: c, pos: c.robHead, stop: noSeq,
		branchesOK: true, storesOK: true, loadsOK: true, atomicsOK: true}
}

// walkTo advances the walk up to position end. A completed instruction
// passed on the way is one the indexed commit failed to visit, unless it
// is a store behind an older store, which canCommit refuses.
func (o *scanOracle) walkTo(end uint64) {
	c := o.c
	for ; !o.stopped && o.pos < end; o.pos++ {
		if d := c.rob[o.pos&c.robMask]; d != nil {
			if d.state == stCompleted && (d.op != isa.OpStore || !o.olderStorePending) {
				c.scanMismatches++
			}
			o.pass(d)
		}
	}
}

// pass adds an instruction the walk visited and did not commit to the
// prefix flags.
func (o *scanOracle) pass(d *DynInstr) {
	if o.c.cfg.CommitMode == CommitInOrder {
		o.stopped, o.stop = true, d.seq
		return
	}
	if d.isBranchy() && !d.resolved {
		o.branchesOK = false
	}
	//wbsim:partial(OpNop, OpALU, OpBranch, OpJump, OpHalt) -- non-memory ops contribute no prefix conditions
	switch d.op {
	case isa.OpStore:
		if !d.sq.addrValid {
			o.storesOK = false
		}
		o.olderStorePending = true
	case isa.OpLoad, isa.OpAtomic:
		if !d.lq.performed {
			o.loadsOK = false
			if d.lq.isAtomic {
				o.atomicsOK = false
			}
		}
	}
	if !o.branchesOK || !o.storesOK {
		o.stopped, o.stop = true, d.seq
	}
}

// visit checks the indexed commit's visit of d against the walk.
func (o *scanOracle) visit(d *DynInstr, loadsOK, atomicsOK, olderStorePending bool) {
	o.walkTo(d.pos)
	o.c.scanChecks++
	if o.stopped || !o.branchesOK || !o.storesOK || o.loadsOK != loadsOK ||
		o.atomicsOK != atomicsOK || o.olderStorePending != olderStorePending {
		o.c.scanMismatches++
	}
}

// visited moves the walk past d, which committed or not.
func (o *scanOracle) visited(d *DynInstr, committed bool) {
	o.pos = d.pos + 1
	if !committed {
		o.pass(d)
	}
}

// finish walks on to where the scan stopped, unless the call ended at
// the commit width, and checks that against stop, the seq the indexed
// commit stopped at (noSeq: the end of the window).
func (o *scanOracle) finish(atWidth bool, stop uint64) {
	if atWidth {
		return
	}
	o.walkTo(o.c.robTail)
	if o.stop != stop {
		o.c.scanMismatches++
	}
}

// canCommit applies the policy to one instruction given the prefix flags.
func (c *Core) canCommit(d *DynInstr, head, branchesOK, storesOK, loadsOK, atomicsOK, olderStorePending bool) bool {
	if d.state != stCompleted {
		return false
	}
	if c.cfg.CommitMode == CommitInOrder {
		if !head {
			return false
		}
		if d.op == isa.OpStore && c.sbLen() >= c.cfg.SBSize {
			return false
		}
		return true
	}
	if !branchesOK || !storesOK {
		return false
	}
	//wbsim:partial -- the default applies condition 6 uniformly to every other op class
	switch d.op {
	case isa.OpHalt:
		return head
	case isa.OpStore:
		// Stores enter the FIFO SB in program order, and only once all
		// prior loads are ordered (load->store order is not relaxed).
		return !olderStorePending && loadsOK && c.sbLen() < c.cfg.SBSize
	case isa.OpAtomic:
		return head // atomics perform at the head anyway
	case isa.OpLoad:
		if loadsOK {
			return true
		}
		//wbsim:partial -- in-order returned above; squash-based safe mode must not commit past unperformed loads
		switch c.cfg.CommitMode {
		case CommitOoOWB:
			// The paper's relaxation: commit the M-speculative load and
			// export its lockdown to the LDT — if the LDT has room.
			// Store-forwarded loads need no lockdown at all. Loads past
			// a pending atomic remain squashable (Section 3.7) and may
			// not commit.
			if !atomicsOK {
				return false
			}
			if d.lq.fwdSeq != 0 || c.ldtFree() {
				return true
			}
			c.Stats.LDTFullStalls++
			return false
		case CommitOoOUnsafe:
			return true // demonstrably wrong over the base protocol
		default:
			return false
		}
	default:
		// Condition 6 gates *every* instruction type in squash-based
		// commit: an older M-speculative load can still be squashed by
		// an invalidation, which must also squash everything younger —
		// so nothing younger may commit irrevocably. Lockdown mode
		// (ooo-wb) makes reordered loads unsquashable and may commit
		// younger instructions past non-performed older loads — except
		// past a pending atomic, whose younger loads stay squashable.
		if c.cfg.CommitMode == CommitOoOWB {
			return atomicsOK
		}
		return loadsOK
	}
}

func (c *Core) ldtFree() bool { return len(c.ldt) < c.cfg.LDTSize }

// commitOne retires one instruction: architectural state is updated (WAW
// guarded, since commits can be out of order), memory structures are
// released, and M-speculative loads export their lockdown to the LDT.
func (c *Core) commitOne(d *DynInstr, head bool) {
	if !head {
		c.Stats.CommittedOoO++
	}
	if d.writesReg() {
		r := d.si.Dst
		if c.newerThanArch(r, d.seq) {
			c.archRegs[r] = d.result
			c.archSeq[r] = d.seq
			c.archValid[r] = true
		}
		if c.regProd[r] == d {
			c.regProd[r] = nil
		}
	}
	//wbsim:partial(OpNop, OpALU, OpBranch, OpJump) -- non-memory ops hold no LSQ or SB resources to release
	switch d.op {
	case isa.OpLoad:
		c.Stats.CommittedLoads++
		c.removeLoad(&d.lq)
	case isa.OpAtomic:
		c.Stats.CommittedLoads++
		c.Stats.CommittedStores++
		c.removeLoad(&d.lq)
	case isa.OpStore:
		c.Stats.CommittedStores++
		c.sb = pushRing(c.sb, &c.sbHead, sbEntry{seq: d.seq, addr: d.sq.addr, line: d.sq.line, value: d.sq.value})
		c.removeStore(&d.sq)
	case isa.OpHalt:
		c.halted = true
	}
}

// removeLoad removes a committed load from the collapsible LQ. If it is
// still M-speculative (ooo-wb or ooo-unsafe commit), ooo-wb exports its
// lockdown to the LDT, where it holds until every older load has
// performed (Section 4.2). Unsafe commit simply drops the entry — which
// is exactly what makes it unsafe.
func (c *Core) removeLoad(e *lqEntry) {
	idx := c.lqSearch(e.d.seq)
	if idx == len(c.lq) || c.lq[idx] != e {
		panic(fmt.Sprintf("cpu %d: committing load not in LQ: %v", c.ID, e.d))
	}
	ordered := idx <= c.sosIndex() // every older load has performed

	// Store-forwarded loads (fwdSeq != 0) never need a lockdown: their
	// value came from the local store buffer and cannot be seen.
	if !ordered && e.fwdSeq == 0 {
		c.Stats.MSpecCommits++
		if c.cfg.CommitMode == CommitOoOWB {
			if !c.ldtFree() {
				panic(fmt.Sprintf("cpu %d: LDT overflow (canCommit must gate)", c.ID))
			}
			c.Stats.LDTExports++
			c.ldt = append(c.ldt, ldtEntry{seq: e.d.seq, line: e.line})
		}
	}

	c.lq = append(c.lq[:idx], c.lq[idx+1:]...)
	if idx < c.lqSoS {
		c.lqSoS--
	}
	c.onOrderingChange()
}

// removeStore pops a committing store off the SQ. A store commits only
// with no older store in flight, so it is always the SQ head.
func (c *Core) removeStore(s *sqEntry) {
	if c.sqLen() == 0 || c.sq[c.sqHead] != s {
		panic(fmt.Sprintf("cpu %d: committing store is not the SQ head: %v", c.ID, s.d))
	}
	c.sqHead++
	if c.sqAddrOK > 0 {
		c.sqAddrOK--
	}
	if c.sqHead == len(c.sq) {
		c.sq = c.sq[:0]
		c.sqHead = 0
	} else if next := c.sq[c.sqHead].d; next.state == stCompleted {
		c.markDone(next)
	}
}
