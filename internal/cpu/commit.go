package cpu

import (
	"fmt"

	"wbsim/internal/isa"
)

// commit retires up to CommitWidth instructions according to the commit
// policy. For out-of-order policies the ROB is scanned in program order
// while prefix conditions (the Bell-Lipasti conditions that depend on
// older instructions) are accumulated:
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
// A scan is skipped while nothing it reads has changed since the last one
// committed nothing (see Core.commitDirty).
func (c *Core) commit() int {
	if !c.commitDirty && !c.checkSkip {
		c.Stats.LDTFullStalls += c.commitStalls
		return 0
	}
	skipped := !c.commitDirty
	stalls0 := c.Stats.LDTFullStalls
	committed := 0
	branchesOK := true
	storesOK := true
	loadsOK := true
	atomicsOK := true // no older non-performed atomic (Section 3.7)
	olderStorePending := false

	for i := c.robHead; i < len(c.rob) && committed < c.cfg.CommitWidth; {
		d := c.rob[i]
		head := i == c.robHead
		if c.canCommit(d, head, branchesOK, storesOK, loadsOK, atomicsOK, olderStorePending) {
			c.commitOne(d, head)
			c.release(d)
			if head {
				// Head retirement (the overwhelmingly common case) just
				// advances the ring head instead of shifting the tail.
				c.rob[i] = nil
				c.robHead++
				i = c.robHead
			} else {
				c.rob = append(c.rob[:i], c.rob[i+1:]...)
			}
			committed++
			continue
		}
		if c.cfg.CommitMode == CommitInOrder {
			break
		}
		// Accumulate prefix conditions from the non-committed instruction.
		if d.isBranchy() && !d.resolved {
			branchesOK = false
		}
		//wbsim:partial(OpNop, OpALU, OpBranch, OpJump, OpHalt) -- non-memory ops contribute no prefix conditions
		switch d.op {
		case isa.OpStore:
			if !d.sq.addrValid {
				storesOK = false
			}
			olderStorePending = true
		case isa.OpLoad, isa.OpAtomic:
			if !d.lq.performed {
				loadsOK = false
				if d.lq.isAtomic {
					atomicsOK = false
				}
			}
		}
		// Conditions 3 and 4 gate every younger instruction: once either
		// fails nothing further can commit this cycle.
		if !branchesOK || !storesOK {
			break
		}
		i++
	}
	if len(c.rob) == c.robHead {
		c.rob = c.rob[:0]
		c.robHead = 0
	}
	c.Stats.Committed += uint64(committed)
	stalls := c.Stats.LDTFullStalls - stalls0
	if skipped {
		c.skipChecks++
		if committed != 0 || stalls != c.commitStalls {
			c.skipMismatches++
		}
	}
	c.commitDirty = committed > 0
	c.commitStalls = stalls
	return committed
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

func (c *Core) ldtFree() bool {
	for i := range c.ldt {
		if !c.ldt[i].valid {
			return true
		}
	}
	return false
}

// commitOne retires one instruction: architectural state is updated (WAW
// guarded, since commits can be out of order), memory structures are
// released, and M-speculative loads export their lockdown to the LDT.
func (c *Core) commitOne(d *DynInstr, head bool) {
	c.traceCommit(d)
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
// still M-speculative (ooo-wb or ooo-unsafe commit), its lockdown is
// exported to the LDT and the release responsibility chained to the
// nearest older non-performed load (Section 4.2). Unsafe commit simply
// drops the entry — which is exactly what makes it unsafe.
func (c *Core) removeLoad(e *lqEntry) {
	idx := c.lqIndex(e)
	if idx < 0 {
		panic(fmt.Sprintf("cpu %d: committing load not in LQ: %v", c.ID, e.d))
	}
	ordered := c.isOrdered(e)
	mask := e.ldtMask

	// Store-forwarded loads (fwdSeq != 0) never need a lockdown: their
	// value came from the local store buffer and cannot be seen.
	if !ordered && e.fwdSeq == 0 {
		c.Stats.MSpecCommits++
		if c.cfg.CommitMode == CommitOoOWB {
			l := c.ldtAllocate(e.line)
			if l < 0 {
				panic(fmt.Sprintf("cpu %d: LDT overflow (canCommit must gate)", c.ID))
			}
			c.Stats.LDTExports++
			mask |= 1 << uint(l)
		}
	}

	c.lq = append(c.lq[:idx], c.lq[idx+1:]...)

	if mask != 0 {
		// Chain the responsibilities to the nearest older non-performed
		// load; if every older load has performed, the exported loads
		// are effectively ordered and the lockdowns release immediately.
		var holder *lqEntry
		for i := idx - 1; i >= 0; i-- {
			if !c.lq[i].performed {
				holder = c.lq[i]
				break
			}
		}
		if holder != nil {
			holder.ldtMask |= mask
		} else {
			c.releaseMask(mask)
		}
	}
	c.onOrderingChange()
}

// removeStore removes a committed store from the SQ (always the oldest).
func (c *Core) removeStore(s *sqEntry) {
	for i, x := range c.sq {
		if x == s {
			c.sq = append(c.sq[:i], c.sq[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("cpu %d: committing store not in SQ: %v", c.ID, s.d))
}
