package cpu

import (
	"fmt"

	"wbsim/internal/isa"
	"wbsim/internal/mem"
	"wbsim/internal/sim"
)

// istate is the lifecycle state of a dynamic instruction.
type istate uint8

const (
	stDispatched istate = iota // in the ROB, waiting for operands
	stReady                    // operands available, in the ready queue
	stIssued                   // executing (or waiting on memory)
	stCompleted                // result available; commit-eligible
)

// DynInstr is one dynamic (in-flight) instruction. It lives in one of the
// core's ROBSize window slots, which are recycled: a slot returns to the
// free list when its instruction commits or is squashed, and the next
// dispatch reuses it for a younger instruction.
type DynInstr struct {
	seq uint64 // per-core program-order age; also the memory token (0 while the slot is free)
	pos uint64 // ROB position: the instruction sits in Core.rob[pos&Core.robMask]
	pc  int
	si  *isa.Instr
	op  isa.Op // si.Op, copied at dispatch: commit reads the opcode of
	// every completed instruction it visits, and the copy spares it the
	// si pointer chase

	state istate

	// Operand capture. pendingIssue counts producers that must complete
	// before the instruction can issue (for stores, only the address
	// operand gates issue; the data operand is tracked separately).
	// A producer pointer needs no seq check: the producer leaves the
	// window either by completing, which clears the pointer, or by a
	// squash, which squashes this (younger) instruction too.
	src1Val, src2Val   mem.Word
	src1Prod, src2Prod *DynInstr
	pendingIssue       int
	dataPending        bool // store data operand still outstanding

	result mem.Word
	// waiters starts with room for slotWaiters dependents, cut by
	// NewCore, and keeps its backing array across slot reuse, so a slot
	// grows it only past that, and at most once to its largest
	// dependent count.
	waiters []instrRef

	// Control flow.
	predTaken bool
	histAt    uint64
	resolved  bool // branch/jump outcome known

	// Memory: the slot's LQ entry for loads and atomics, its SQ entry for
	// stores; the other is unused.
	lq lqEntry
	sq sqEntry
}

// instrRef names the instruction that occupied a window slot when the
// reference was taken. Holders that can outlive the instruction (queued
// events, waiter lists, the ready queue) keep one: once the instruction
// commits or is squashed its slot's seq changes, so the reference reads
// as dead even after the slot is reused.
type instrRef struct {
	d   *DynInstr
	seq uint64
}

func ref(d *DynInstr) instrRef { return instrRef{d, d.seq} }

// live reports whether the referenced instruction is still in flight.
func (r instrRef) live() bool { return r.d.seq == r.seq }

// writesReg reports whether the instruction produces a register value.
func (d *DynInstr) writesReg() bool {
	if d.si.Dst == isa.R0 {
		return false
	}
	//wbsim:partial(OpNop, OpStore, OpBranch, OpJump, OpHalt) -- these ops never produce a register value
	switch d.op {
	case isa.OpALU, isa.OpLoad, isa.OpAtomic:
		return true
	}
	return false
}

// isBranchy reports whether commit condition 3 (resolved control flow)
// gates younger instructions on this one.
func (d *DynInstr) isBranchy() bool {
	return d.op == isa.OpBranch || d.op == isa.OpJump
}

func (d *DynInstr) String() string {
	return fmt.Sprintf("#%d@%d %s", d.seq, d.pc, d.si)
}

// lqEntry is a load-queue entry (loads and the load half of atomics), in
// program order. The collapsible LQ removes committed loads from any
// position.
type lqEntry struct {
	d         *DynInstr
	addr      mem.Addr
	line      mem.Line
	addrValid bool
	performed bool
	issued    bool // outstanding request in the memory system
	needRetry bool // received a tear-off copy while unordered (Section 3.4)
	value     mem.Word
	fwdSeq    uint64 // seq of the store that forwarded the value (0 = memory)
	isAtomic  bool
	atomicGo  bool // atomic handed to the PCU
}

// sqEntry is a store-queue entry, in program order.
type sqEntry struct {
	d          *DynInstr
	addr       mem.Addr
	line       mem.Line
	addrValid  bool
	value      mem.Word
	valueValid bool
	prefetched bool
}

// sbEntry is a committed store waiting in the FIFO store buffer.
type sbEntry struct {
	seq   uint64
	addr  mem.Addr
	line  mem.Line
	value mem.Word
}

// ldtEntry is a Lockdown Table entry: the lockdown of a load that
// committed out of order, kept at the L1 until the load would have become
// ordered (Section 4.2) — that is, until no load older than seq is
// unperformed. Loads never unperform, so onOrderingChange frees the entry
// as soon as the oldest unperformed load is younger than it. The "seen"
// bit of the paper is tracked per line in Core.seenLines (equivalent
// encoding: an Ack is owed when the last lockdown for a seen line lifts).
type ldtEntry struct {
	seq  uint64 // the committed load's seq
	line mem.Line
}

// Stats aggregates per-core counters used by the figures.
type Stats struct {
	Committed       uint64
	CommittedLoads  uint64
	CommittedStores uint64
	CommittedOoO    uint64 // instructions committed from beyond the ROB head
	MSpecCommits    uint64 // M-speculative loads committed via the LDT (or unsafely)

	Fetched  uint64
	Squashed uint64

	SquashBranch uint64
	SquashMemDep uint64
	SquashInv    uint64 // consistency squashes (invalidation hit an M-spec load)
	SquashEvict  uint64 // consistency squashes on owned-line eviction
	SquashAtomic uint64 // squashes of loads that speculated past a pending atomic (Section 3.7)

	StallROB   uint64 // cycles with no commit and the ROB full
	StallLQ    uint64
	StallSQ    uint64
	StallOther uint64
	Cycles     uint64

	LockdownsSet   uint64 // loads that became M-speculative (entered lockdown)
	LDTExports     uint64
	LDTFullStalls  uint64
	TearoffsBound  uint64 // tear-off values consumed by ordered loads
	TearoffRetries uint64 // tear-offs that unordered loads had to discard

	Forwards    uint64 // store-to-load forwards
	MemDepWait  uint64
	DoneAtCycle sim.Cycle
}
