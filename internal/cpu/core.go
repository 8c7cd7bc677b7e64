package cpu

import (
	"fmt"
	"math/bits"

	"wbsim/internal/coherence"
	"wbsim/internal/isa"
	"wbsim/internal/mem"
	"wbsim/internal/ordering"
	"wbsim/internal/sim"
)

// Core is one simulated out-of-order core. It owns the front end
// (predicted-path fetch), the scheduler, the ROB/LQ/SQ/SB/LDT, and the
// commit policy, and talks to its private cache unit (coherence.PCU) for
// all memory traffic. It implements coherence.CoreHooks.
type Core struct {
	ID      int
	cfg     Config
	program *isa.Program
	pcu     *coherence.PCU
	pred    *Predictor
	events  coreEvents

	// Front end.
	fetchPC         int
	fetchStallUntil sim.Cycle
	fetchHalted     bool
	halted          bool

	// Rename-lite register state.
	regProd   [isa.NumRegs]*DynInstr
	archRegs  [isa.NumRegs]mem.Word
	archSeq   [isa.NumRegs]uint64
	archValid [isa.NumRegs]bool // written at least once (seq 0 ambiguity guard)

	nextSeq uint64

	// The ROB is a ring indexed by absolute dispatch position: the
	// instruction dispatched at position p sits in rob[p&robMask] and
	// records p. The ring has a power-of-two size of at least 4×ROBSize
	// slots. An instruction that commits from behind the head leaves a
	// nil tombstone; robHead is the position of the oldest in-flight
	// instruction (robTail when there is none), so it steps over
	// tombstones, and robTail is the next dispatch position. Dispatch
	// compacts the tombstones out when robTail-robHead reaches the ring
	// size. robLive counts the in-flight instructions.
	rob              []*DynInstr
	robMask          uint64
	robHead, robTail uint64
	robLive          int
	// done has one bit per ROB slot, set while the slot's instruction
	// has completed and is not a store behind an older store (see
	// setDone), so commit visits only instructions that may commit.
	done []uint64

	// Commit blockers (out-of-order commit modes only). branches holds
	// the in-flight branches and jumps in dispatch order from the oldest
	// unresolved one on; brHead and brTail are absolute positions in the
	// power-of-two ring. sqAddrOK is the length of an SQ prefix
	// whose store addresses have all resolved: a committed or squashed
	// store shortens it, and commit extends it.
	branches       []instrRef
	brHead, brTail uint64
	sqAddrOK       int

	// ord is the LQ's program order and load-ordering state, the LDT and
	// the seen lines; a load's timing state is its slot's lqEntry.
	ord       ordering.LoadOrder
	sq        []*sqEntry
	sqHead    int // consumed prefix of sq (ring-style, backing array reused)
	sb        []sbEntry
	sbHead    int // consumed prefix of sb (ring-style, backing array reused)
	readyQ    []instrRef
	readyHead int // consumed prefix of readyQ (ring-style, backing array reused)
	iqCount   int

	// slots are the ROBSize instruction-window slots, each with room for
	// the instruction's LQ or SQ entry, and free holds those no in-flight
	// instruction occupies. Commit and squash return a slot to free and
	// dispatch takes one, so the steady state allocates nothing. Every
	// in-flight instruction sits in the ROB, whose occupancy fetch caps
	// at ROBSize, so the list runs empty only if a slot leaks.
	slots []DynInstr
	free  []*DynInstr

	// checkScan, set only by tests, walks the window from the head at
	// every commit call as the scanning commit did, and counts in
	// scanChecks/scanMismatches the completed instructions visited and
	// the decisions (prefix flags, stop point) that disagreed.
	checkScan                  bool
	scanChecks, scanMismatches int

	// dispatch-block reason for this cycle's stall accounting.
	blockReason string

	// Idle-skip bookkeeping (see core.System.Step's per-core skip).
	// inert records that the last Tick provably changed nothing but the
	// cycle counter and per-cycle stall/polling counters; recur holds
	// that tick's deltas of the recurring counters (MemDepWait,
	// LDTFullStalls, PCU Loads, PCU LoadMisses) and recurOK that they
	// matched the previous tick's — the steady-state signature that makes
	// crediting skipped cycles exact. stallKind persists the accountStall
	// bucket so skipped cycles charge the same stall reason a real tick
	// would have.
	inert     bool
	recur     [4]uint64
	recurOK   bool
	stallKind uint8

	Stats Stats
	now   sim.Cycle
}

// NewCore builds a core running program under the given configuration.
func NewCore(id int, cfg Config, program *isa.Program) *Core {
	cfg.Validate()
	ring := max(64, pow2AtLeast(4*cfg.ROBSize)) // at least one done word
	c := &Core{
		ID:      id,
		cfg:     cfg,
		program: program,
		pred:    NewPredictor(12),
		ord:     ordering.New(cfg.LQSize, cfg.LDTSize, cfg.Lockdown),
		nextSeq: 1, // seq 0 reserved (fwdSeq sentinel, free slots)
		free:    make([]*DynInstr, cfg.ROBSize),
		rob:     make([]*DynInstr, ring),
		robMask: uint64(ring - 1),
		done:    make([]uint64, ring/64),
	}
	if cfg.CommitMode != CommitInOrder {
		c.branches = make([]instrRef, pow2AtLeast(cfg.ROBSize))
	}
	c.events.init(cfg.ROBSize)
	c.slots = make([]DynInstr, cfg.ROBSize)
	waiters := make([]instrRef, slotWaiters*cfg.ROBSize)
	for i := range c.slots {
		lo := i * slotWaiters
		c.slots[i].slot, c.slots[i].waiters = int32(i), waiters[lo:lo:lo+slotWaiters]
		c.free[i] = &c.slots[i]
	}
	return c
}

// slotWaiters is the waiter capacity each window slot starts with, cut
// from one array per core: no instruction of a 16-core fft run has more
// than four dependents in flight, so its slots never grow their lists.
const slotWaiters = 4

// pow2AtLeast returns the smallest power of two that is at least n (n > 0).
func pow2AtLeast(n int) int { return 1 << bits.Len(uint(n-1)) }

// AttachPCU wires the private cache unit (built after the core because
// the PCU needs the core as its hooks receiver).
func (c *Core) AttachPCU(p *coherence.PCU) { c.pcu = p }

// Done reports whether the core has fully drained: halted, with an empty
// store buffer and no in-flight memory transactions.
func (c *Core) Done() bool {
	return c.halted && c.sbLen() == 0 && c.pcu.Quiescent() && c.events.empty()
}

// CheckInvariants panics, naming the core, if a finished run left state
// behind in it: a live LDT entry (an exported lockdown that never
// lifted), a withheld invalidation ack, or an LQ, SQ or ROB entry.
// System.Run calls it after every run, beside the bank and PCU checks.
func (c *Core) CheckInvariants() {
	if len(c.ord.LDT())+len(c.ord.Seen())+len(c.ord.Loads())+c.sqLen()+c.robLen() != 0 {
		panic(fmt.Sprintf("cpu %d: finished run left ldt=%d seen=%d lq=%d sq=%d rob=%d",
			c.ID, len(c.ord.LDT()), len(c.ord.Seen()), len(c.ord.Loads()), c.sqLen(), c.robLen()))
	}
}

// Reg returns the architectural value of a register (for litmus results;
// valid once the core is halted).
func (c *Core) Reg(r isa.Reg) mem.Word {
	if r == isa.R0 {
		return 0
	}
	return c.archRegs[r]
}

// Stall buckets persisted by accountStall for idle crediting.
const (
	stallNone = iota
	stallROB
	stallLQ
	stallSQ
	stallOther
)

// Tick advances the core by one cycle. The PCU is ticked separately by
// the system (delivering memory responses before the core's pipeline
// stages run).
func (c *Core) Tick(now sim.Cycle) {
	c.now = now

	c.Stats.Cycles++

	// Snapshot everything a state-changing tick must disturb. Any
	// mutation that matters for future behaviour either fires or
	// schedules an event, commits, moves a queue boundary, fetches, or
	// squashes; pure polling failures only bump the recurring counters
	// snapshot below.
	preFetched := c.Stats.Fetched
	preSquashed := c.Stats.Squashed
	preSB := c.sbLen()
	preReady := c.readyLen()
	preEvSeq := c.events.seq
	preRecur := [4]uint64{c.Stats.MemDepWait, c.Stats.LDTFullStalls,
		c.pcu.Stats.Loads, c.pcu.Stats.LoadMisses}

	fired := c.events.run(now, c.fire)
	committed := c.commit()
	c.drainSB()
	c.issue()
	c.tryMemoryIssue()
	c.blockReason = ""
	c.fetch()
	c.accountStall(committed)

	recur := [4]uint64{c.Stats.MemDepWait - preRecur[0], c.Stats.LDTFullStalls - preRecur[1],
		c.pcu.Stats.Loads - preRecur[2], c.pcu.Stats.LoadMisses - preRecur[3]}
	c.inert = fired == 0 && committed == 0 &&
		c.sbLen() == preSB && c.readyLen() == preReady &&
		c.events.seq == preEvSeq &&
		c.Stats.Fetched == preFetched && c.Stats.Squashed == preSquashed
	c.recurOK = recur == c.recur
	c.recur = recur
}

func (c *Core) accountStall(committed int) {
	if committed > 0 || c.halted {
		c.stallKind = stallNone
		return
	}
	switch c.blockReason {
	case "rob":
		c.Stats.StallROB++
		c.stallKind = stallROB
	case "lq":
		c.Stats.StallLQ++
		c.stallKind = stallLQ
	case "sq", "sb":
		c.Stats.StallSQ++
		c.stallKind = stallSQ
	default:
		c.Stats.StallOther++
		c.stallKind = stallOther
	}
}

// readyLen is the number of un-issued entries in the ready queue.
func (c *Core) readyLen() int { return len(c.readyQ) - c.readyHead }

// robLen is the number of in-flight ROB entries.
func (c *Core) robLen() int { return c.robLive }

// robOldest returns the oldest in-flight instruction, or nil.
func (c *Core) robOldest() *DynInstr {
	if c.robLive == 0 {
		return nil
	}
	return c.rob[c.robHead&c.robMask]
}

// sqLen is the number of uncommitted stores.
func (c *Core) sqLen() int { return len(c.sq) - c.sqHead }

// sqLive returns the uncommitted stores, oldest first.
func (c *Core) sqLive() []*sqEntry { return c.sq[c.sqHead:] }

// sbLen is the number of undrained store-buffer entries.
func (c *Core) sbLen() int { return len(c.sb) - c.sbHead }

// IdleStable reports whether the last Tick was inert — no event fired or
// was scheduled, nothing committed, fetched, issued, squashed, or moved
// through the store buffer — AND its recurring-counter deltas matched the
// tick before (so the core is past any one-shot transition such as
// registering a miss waiter). While the core stays idle-stable, its PCU
// stays inactive and WakeDue is false, its ticks are exact repeats: the
// scheduler may credit them (CreditIdle) instead of executing them.
func (c *Core) IdleStable() bool { return c.inert && c.recurOK }

// WakeDue reports whether a scheduled event or the fetch re-enable
// falls due at or before now, counting from the last executed tick.
func (c *Core) WakeDue(now sim.Cycle) bool {
	if at, ok := c.events.nextAt(); ok && at <= now {
		return true
	}
	return !c.halted && !c.fetchHalted && c.now < c.fetchStallUntil && c.fetchStallUntil <= now
}

// CreditIdle accounts one skipped cycle as if it had been executed: the
// cycle counter, the persisted stall bucket, and the recurring per-cycle
// counters (including the PCU's polling counters) advance exactly as an
// inert tick would have advanced them.
func (c *Core) CreditIdle() {
	c.Stats.Cycles++
	switch c.stallKind {
	case stallROB:
		c.Stats.StallROB++
	case stallLQ:
		c.Stats.StallLQ++
	case stallSQ:
		c.Stats.StallSQ++
	case stallOther:
		c.Stats.StallOther++
	}
	c.Stats.MemDepWait += c.recur[0]
	c.Stats.LDTFullStalls += c.recur[1]
	c.pcu.Stats.Loads += c.recur[2]
	c.pcu.Stats.LoadMisses += c.recur[3]
}

// ---------------------------------------------------------------------
// Fetch and dispatch
// ---------------------------------------------------------------------

func (c *Core) fetch() {
	if c.halted || c.fetchHalted || c.now < c.fetchStallUntil {
		return
	}
	for i := 0; i < c.cfg.FetchWidth; i++ {
		si := c.program.At(c.fetchPC)
		if c.robLen() >= c.cfg.ROBSize {
			c.blockReason = "rob"
			return
		}
		if c.iqCount >= c.cfg.IQSize {
			if c.blockReason == "" {
				c.blockReason = "iq"
			}
			return
		}
		//wbsim:partial(OpNop, OpALU, OpStore, OpBranch, OpJump, OpHalt) -- only LQ-allocating ops are gated here; stores are gated just below
		switch si.Op {
		case isa.OpLoad, isa.OpAtomic:
			if len(c.ord.Loads()) >= c.cfg.LQSize {
				c.blockReason = "lq"
				return
			}
		}
		if si.Op == isa.OpStore {
			if c.sqLen() >= c.cfg.SQSize {
				c.blockReason = "sq"
				return
			}
		}
		d := c.dispatch(si, c.fetchPC)
		c.Stats.Fetched++
		//wbsim:partial -- only control-flow ops redirect the PC; everything else falls through to PC+1
		switch si.Op {
		case isa.OpHalt:
			c.fetchHalted = true
			return
		case isa.OpJump:
			c.fetchPC = si.Target
			return // redirect consumes the rest of the fetch group
		case isa.OpBranch:
			d.histAt = c.pred.History()
			d.predTaken = c.pred.Predict(c.fetchPC)
			if d.predTaken {
				c.fetchPC = si.Target
			} else {
				c.fetchPC++
			}
			return
		default:
			c.fetchPC++
		}
	}
}

// pushRing appends x to a ring whose first *head elements are consumed
// (the ready queue, the SQ and the store buffer).
// When the backing array is full and at least half consumed it slides the
// live elements down to index 0 instead of growing, so a ring that never
// fully drains still stops growing at twice its peak occupancy.
func pushRing[T any](s []T, head *int, x T) []T {
	if len(s) == cap(s) && *head >= len(s)/2 {
		s = s[:copy(s, s[*head:])]
		*head = 0
	}
	return append(s, x)
}

// dispatch takes a free window slot for the instruction, wires its
// dependencies, and places it in the ROB (and LQ/SQ for memory
// operations).
func (c *Core) dispatch(si *isa.Instr, pc int) *DynInstr {
	n := len(c.free) - 1
	if n < 0 {
		panic(fmt.Sprintf("cpu %d: no free window slot with %d instructions in the ROB (a slot leaked)", c.ID, c.robLen()))
	}
	d := c.free[n]
	c.free = c.free[:n]
	// Clear in place and then fill in: a composite literal that reads *d
	// would be built in a temporary and copied over the whole slot.
	slot, waiters := d.slot, d.waiters[:0]
	*d = DynInstr{}
	d.seq, d.pc, d.si, d.op, d.slot, d.waiters = c.nextSeq, pc, si, si.Op, slot, waiters
	d.sq.d = d
	c.nextSeq++
	if c.robTail-c.robHead == uint64(len(c.rob)) {
		c.compactROB()
	}
	d.pos = c.robTail
	c.rob[d.pos&c.robMask] = d
	c.robTail++
	c.robLive++
	c.iqCount++
	if c.branches != nil && d.isBranchy() {
		c.pushBranch(d)
	}

	// Source 1 gates issue for every op that reads it.
	needSrc1 := si.Op == isa.OpALU || si.Op == isa.OpLoad || si.Op == isa.OpStore ||
		si.Op == isa.OpBranch || si.Op == isa.OpAtomic
	// Source 2 gates issue for ALU/branch/atomic; for stores it is the
	// data operand, tracked separately so address generation can proceed.
	needSrc2 := (si.Op == isa.OpALU || si.Op == isa.OpBranch) && !si.UseImm || si.Op == isa.OpAtomic

	if needSrc1 {
		c.wireOperand(d, si.Src1, 1, true)
	}
	if needSrc2 {
		c.wireOperand(d, si.Src2, 2, true)
	}
	if si.Op == isa.OpStore {
		c.wireOperand(d, si.Src2, 2, false)
	}
	// Register this instruction as the newest producer of its
	// destination (after operand wiring, so a same-register source reads
	// the previous producer).
	if d.writesReg() {
		c.regProd[si.Dst] = d
	}

	//wbsim:partial(OpNop, OpALU, OpBranch, OpJump, OpHalt) -- non-memory ops occupy no LSQ entries
	switch si.Op {
	case isa.OpLoad, isa.OpAtomic:
		c.ord.Push(d.seq, d.slot, si.Op == isa.OpAtomic)
	case isa.OpStore:
		c.sq = pushRing(c.sq, &c.sqHead, &d.sq)
		if d.dataPending {
			// value captured later via produceDone
		} else {
			d.sq.value = d.src2Val
			d.sq.valueValid = true
		}
	}

	if d.pendingIssue == 0 {
		c.makeReady(d)
	}
	return d
}

// wireOperand resolves one register operand: from the zero register, the
// architectural file, a completed producer, or a pending producer (which
// registers d as a waiter). gate indicates the operand gates issue.
func (c *Core) wireOperand(d *DynInstr, r isa.Reg, which int, gate bool) {
	var val mem.Word
	var prod *DynInstr
	if r != isa.R0 {
		if p := c.regProd[r]; p != nil {
			if p.state == stCompleted {
				val = p.result
			} else {
				prod = p
			}
		} else {
			val = c.archRegs[r]
		}
	}
	if prod != nil {
		prod.waiters = append(prod.waiters, ref(d))
		if which == 1 {
			d.src1Prod = prod
		} else {
			d.src2Prod = prod
		}
		if gate {
			d.pendingIssue++
		} else {
			d.dataPending = true
		}
		return
	}
	if which == 1 {
		d.src1Val = val
	} else {
		d.src2Val = val
	}
}

// makeReady queues d for issue.
func (c *Core) makeReady(d *DynInstr) {
	d.state = stReady
	c.readyQ = pushRing(c.readyQ, &c.readyHead, ref(d))
}

// produceDone is called when a producer completes, delivering its value
// to d.
func (c *Core) produceDone(d, prod *DynInstr) {
	if d.src1Prod == prod {
		d.src1Prod = nil
		d.src1Val = prod.result
		d.pendingIssue--
	}
	if d.src2Prod == prod {
		d.src2Prod = nil
		d.src2Val = prod.result
		if d.op == isa.OpStore {
			d.dataPending = false
			d.sq.value = d.src2Val
			d.sq.valueValid = true
			c.maybeCompleteStore(d)
		} else {
			d.pendingIssue--
		}
	}
	if d.state == stDispatched && d.pendingIssue == 0 {
		c.makeReady(d)
	}
}

// ---------------------------------------------------------------------
// Issue and execute
// ---------------------------------------------------------------------

func (c *Core) issue() {
	issued := 0
	for issued < c.cfg.IssueWidth && c.readyHead < len(c.readyQ) {
		r := c.readyQ[c.readyHead]
		c.readyHead++
		if !r.live() || r.d.state != stReady {
			continue
		}
		d := r.d
		d.state = stIssued
		c.iqCount--
		issued++
		c.execute(d)
	}
	// Rewind the ring when drained so the backing array is reused
	// (consuming via [1:] re-slicing forced an allocation per refill).
	if c.readyHead == len(c.readyQ) {
		c.readyQ = c.readyQ[:0]
		c.readyHead = 0
	}
}

// execute starts execution of an issued instruction.
func (c *Core) execute(d *DynInstr) {
	switch d.op {
	case isa.OpNop, isa.OpHalt:
		c.events.after(c.now, 1, evComplete, d, 0)
	case isa.OpJump:
		d.resolved = true
		c.branchResolved(d)
		c.events.after(c.now, 1, evComplete, d, 0)
	case isa.OpALU:
		lat := c.cfg.ALULatency
		if d.si.Latency > 0 {
			lat = d.si.Latency
		}
		b := d.src2Val
		if d.si.UseImm {
			b = d.si.Imm
		}
		res := isa.EvalALU(d.si.Fn, d.src1Val, b)
		c.events.after(c.now, sim.Cycle(lat), evComplete, d, res)
	case isa.OpBranch:
		c.events.after(c.now, 1, evBranch, d, 0)
	case isa.OpLoad, isa.OpAtomic:
		d.lq.addr = mem.AlignWord(mem.Addr(d.src1Val + d.si.Imm))
		d.lq.addrValid = true
		// Memory issue is attempted by tryMemoryIssue (this cycle too).
	case isa.OpStore:
		d.sq.addr = mem.AlignWord(mem.Addr(d.src1Val + d.si.Imm))
		d.sq.line = mem.LineOf(d.sq.addr)
		d.sq.addrValid = true
		c.memDepCheck(&d.sq)
		if !d.sq.prefetched {
			d.sq.prefetched = true
			c.pcu.StorePrefetch(c.now, d.sq.line)
		}
		c.maybeCompleteStore(d)
	default:
		panic(fmt.Sprintf("cpu: issue of %v", d.si.Op))
	}
}

// maybeCompleteStore completes a store once both its address and data are
// known (completion makes it commit-eligible; it performs later from the
// store buffer).
func (c *Core) maybeCompleteStore(d *DynInstr) {
	if d.state != stIssued {
		return
	}
	if d.sq.addrValid && d.sq.valueValid {
		c.events.after(c.now, 1, evComplete, d, 0)
	}
}

// complete finishes execution: the result becomes available and
// dependents wake.
func (c *Core) complete(d *DynInstr, result mem.Word) {
	if d.state == stCompleted {
		return
	}
	c.setDone(d, true)
	d.result = result
	for _, w := range d.waiters {
		if w.live() {
			c.produceDone(w.d, d)
		}
	}
	d.waiters = d.waiters[:0]
}

// resolveBranch evaluates the branch, trains the predictor, and squashes
// on a misprediction.
func (c *Core) resolveBranch(d *DynInstr) {
	b := d.src2Val
	if d.si.UseImm {
		b = d.si.Imm
	}
	taken := isa.EvalCond(d.si.Fn, d.src1Val, b)
	d.resolved = true
	c.branchResolved(d)
	c.pred.Train(d.pc, d.histAt, taken)
	c.complete(d, 0)
	if taken != d.predTaken {
		c.Stats.SquashBranch++
		c.pred.Restore(d.histAt, taken)
		target := d.pc + 1
		if taken {
			target = d.si.Target
		}
		c.squashFrom(d.seq+1, target, c.cfg.MispredictPenalty)
	}
}

// ---------------------------------------------------------------------
// Squash
// ---------------------------------------------------------------------

// squashFrom removes every instruction with seq >= cut from the pipeline,
// redirects fetch to pc, and stalls the front end for penalty cycles.
func (c *Core) squashFrom(cut uint64, pc int, penalty int) {
	// Find the ROB boundary: end is the position after the youngest
	// surviving instruction, and victims counts the squashed ones.
	end, victims := c.robTail, 0
	for end > c.robHead {
		d := c.rob[(end-1)&c.robMask]
		if d != nil {
			if d.seq < cut {
				break
			}
			victims++
		}
		end--
	}
	if victims == 0 {
		// Nothing younger in flight; just redirect.
		c.fetchPC = pc
		c.fetchStallUntil = c.now + sim.Cycle(penalty)
		c.fetchHalted = false
		return
	}

	// Trim LQ and SQ (before the squashed slots are freed, which clears
	// the seqs the trim compares).
	c.ord.Squash(cut)
	c.sq = c.sq[:c.sqHead+len(trimSQ(c.sqLive(), cut))]
	c.sqAddrOK = min(c.sqAddrOK, c.sqLen())
	for c.brTail > c.brHead && c.branches[(c.brTail-1)&uint64(len(c.branches)-1)].seq >= cut {
		c.brTail--
	}

	// Slots are freed youngest first, so dispatch next takes the oldest
	// squashed one.
	for p := c.robTail; p > end; p-- {
		i := (p - 1) & c.robMask
		d := c.rob[i]
		if d == nil {
			continue
		}
		c.rob[i] = nil
		c.robLive--
		c.Stats.Squashed++
		if d.state == stDispatched || d.state == stReady {
			c.iqCount--
		}
		c.release(d)
	}
	c.robTail = end

	// Rebuild the register producer table from surviving instructions.
	c.regProd = [isa.NumRegs]*DynInstr{}
	for p := c.robHead; p < c.robTail; p++ {
		if d := c.rob[p&c.robMask]; d != nil && d.writesReg() && c.newerThanArch(d.si.Dst, d.seq) {
			c.regProd[d.si.Dst] = d
		}
	}

	c.fetchPC = pc
	c.fetchStallUntil = c.now + sim.Cycle(penalty)
	c.fetchHalted = false
	c.onOrderingChange()
}

// compactROB slides the in-flight instructions down over the tombstones
// between them, keeping their order, and rebuilds the done bitmap for
// their new positions. Dispatch calls it when the span from robHead to
// robTail fills the ring.
func (c *Core) compactROB() {
	w := c.robHead
	for p := c.robHead; p < c.robTail; p++ {
		d := c.rob[p&c.robMask]
		if d == nil {
			continue
		}
		c.rob[p&c.robMask] = nil
		c.rob[w&c.robMask] = d
		d.pos = w
		w++
	}
	c.robTail = w
	clear(c.done)
	for p := c.robHead; p < c.robTail; p++ {
		if d := c.rob[p&c.robMask]; d.state == stCompleted {
			c.markDone(d)
		}
	}
}

// setDone moves d into stCompleted (on) or out of it (off, into the
// dispatched state a fresh slot starts in) and keeps d's bit in the done
// bitmap in step. Every change into or out of stCompleted goes through
// here; commit and squash take an instruction out when they release it.
func (c *Core) setDone(d *DynInstr, on bool) {
	if on {
		d.state = stCompleted
		c.markDone(d)
	} else {
		d.state = stDispatched
		i := d.pos & c.robMask
		c.done[i>>6] &^= 1 << (i & 63)
	}
}

// markDone sets the done bit of completed instruction d, unless d is a
// store behind an older one: stores commit in SQ order, so commit's
// visit to it could only fail, and removeStore marks it once it heads
// the SQ.
func (c *Core) markDone(d *DynInstr) {
	if d.op == isa.OpStore && c.sq[c.sqHead] != &d.sq {
		return
	}
	i := d.pos & c.robMask
	c.done[i>>6] |= 1 << (i & 63)
}

// release returns the slot of a committed or squashed instruction to the
// free list. Zeroing its seq kills every instrRef still naming it.
func (c *Core) release(d *DynInstr) {
	c.setDone(d, false)
	d.seq = 0
	c.free = append(c.free, d)
}

// newerThanArch reports whether seq is younger than the last committed
// writer of register r.
func (c *Core) newerThanArch(r isa.Reg, seq uint64) bool {
	return !c.archValid[r] || seq > c.archSeq[r]
}

func trimSQ(entries []*sqEntry, cut uint64) []*sqEntry {
	for i, e := range entries {
		if e.d.seq >= cut {
			return entries[:i]
		}
	}
	return entries
}
