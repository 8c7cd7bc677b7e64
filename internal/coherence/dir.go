package coherence

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"wbsim/internal/cache"
	"wbsim/internal/coherence/table"
	"wbsim/internal/mem"
	"wbsim/internal/network"
	"wbsim/internal/sim"
)

// Directory line states. Stable states are Invalid/Shared/Exclusive;
// Fetching covers the memory access; Busy covers an in-flight transaction
// awaiting Unblock; WB is the paper's WritersBlock transient state, which
// blocks writes but serves reads with uncacheable tear-off data.
type dirKind int

const (
	dirInvalid dirKind = iota
	dirShared
	dirExclusive
	dirFetching
	dirBusy
	dirWB
	// dirTsShared is the tardis protocol's leased-shared kind: copies
	// are tracked by the line's read timestamp (rts), not a sharer list.
	// Stable with no transaction; a write or eviction parks a transaction
	// on it until the lease timer fires (TsWaitWrite/TsWaitEvict).
	dirTsShared
)

func (k dirKind) String() string {
	switch k {
	case dirInvalid:
		return "I"
	case dirShared:
		return "S"
	case dirExclusive:
		return "E/M"
	case dirFetching:
		return "Fetch"
	case dirBusy:
		return "Busy"
	case dirWB:
		return "WB"
	case dirTsShared:
		return "TsS"
	}
	return "?"
}

// dirTxn tracks one in-flight transaction at the directory, held by
// value in its directory entry.
type dirTxn struct {
	write     bool
	eviction  bool
	requester network.Endpoint
	grantExcl bool // read transaction granted exclusivity (MESI E)

	// Read-forward bookkeeping: a 3-hop read completes when the owner's
	// clean copy and the requester's Unblock have both arrived.
	fwd          bool
	gotOwnerData bool
	gotUnblock   bool
	oldOwner     network.Endpoint

	// Eviction bookkeeping: invalidation responses still outstanding.
	acksPending int

	// WritersBlock bookkeeping: DelayedAcks still expected from cores
	// whose lockdowns nacked the invalidation.
	delayedPending int
	hinted         bool

	// Diagnosis-only wait ledgers (best effort, never read by protocol
	// logic): which endpoints the outstanding acksPending / delayedPending
	// debts are owed by. Hang reports turn these into wait-for edges.
	ackFrom     []network.Endpoint
	delayedFrom []network.Endpoint
}

// removeEP deletes the first occurrence of ep, preserving order.
func removeEP(s []network.Endpoint, ep network.Endpoint) []network.Endpoint {
	for i, e := range s {
		if e == ep {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// dirLine is the directory slice entry for one line, including the LLC
// bank's copy of the data.
type dirLine struct {
	line      mem.Line
	kind      dirKind
	sharers   []network.Endpoint // deterministic order (insertion)
	owner     network.Endpoint
	hasOwner  bool
	data      mem.LineData
	dataValid bool   // data is the current value of the line
	dirty     bool   // data differs from memory
	txn       dirTxn // the in-flight transaction, while hasTxn
	hasTxn    bool
	pending   []Msg // queued requests (writes while WB; everything while Busy/Fetching)
	inEvBuf   bool
	frame     *cache.Entry

	// rts is the tardis read timestamp: the latest lease-expiry cycle
	// granted on this line. A write (or eviction) of a TsShared line may
	// complete only after rts has passed. It is a cycle stamp, so the
	// model checker excludes it from line fingerprints.
	rts sim.Cycle

	// since stamps the cycle the line last entered a transient state
	// (Fetching/Busy/WB); the watchdog bounds its age.
	since sim.Cycle
}

// openTxn starts t as dl's transaction, keeping the storage of the
// previous transaction's wait ledgers.
func (dl *dirLine) openTxn(t dirTxn) {
	t.ackFrom, t.delayedFrom = dl.txn.ackFrom[:0], dl.txn.delayedFrom[:0]
	dl.txn = t
	dl.hasTxn = true
}

// transient reports whether k is a non-stable directory state.
func (k dirKind) transient() bool {
	return k == dirFetching || k == dirBusy || k == dirWB
}

// setKind transitions a line's state, stamping the entry cycle on a
// stable-to-transient edge so hang reports can age transient entries.
func (b *Bank) setKind(dl *dirLine, k dirKind) {
	if k.transient() && !dl.kind.transient() {
		dl.since = b.now
	}
	dl.kind = k
}

// BankStats counts the protocol events that Figures 8 and 9 report.
type BankStats struct {
	GetS             uint64
	GetX             uint64
	BlockedWrites    uint64 // write transactions that hit >=1 lockdown (Figure 8 top)
	UncacheableReads uint64 // tear-off data responses (Figure 8 bottom)
	WBEntries        uint64 // times a line entered WritersBlock
	QueuedWrites     uint64 // writes queued behind a WritersBlock
	Evictions        uint64
	EvictionsWB      uint64 // evictions that landed in the eviction buffer in WB
	UncacheableFull  uint64 // uncacheable reads forced by a full eviction buffer
	MemReads         uint64
	MemWrites        uint64
	LeaseGrants      uint64 // tardis: shared grants stamped with a read lease
	LeaseExpiries    uint64 // tardis: lease timers fired (write releases + eviction completions)
}

// Bank is one LLC bank with its directory slice.
type Bank struct {
	id     network.Endpoint
	port   network.Port
	params *Params
	events sim.Queue[deferred]
	memory *mem.Memory

	array *cache.Array
	lines map[mem.Line]*dirLine
	evbuf []*dirLine // eviction buffer, in line order

	// spare holds retired directory entries for newLine to reuse, and
	// envs is the free list of the envelopes this bank sends in.
	spare []*dirLine
	envs  envelopes

	// earlyDelayed buffers DelayedAcks that overtook their Nack in the
	// unordered network, one line per ack; they are consumed when the
	// Nack arrives.
	earlyDelayed []mem.Line

	// machine is the composed transition table the bank dispatches on;
	// cov counts row firings for the -coverage report; trace, when set,
	// observes every (state, event) firing (tests).
	flavor  dirFlavor
	machine *table.Machine[dirAction]
	cov     []uint64
	trace   func(dirState, dirEvent)
	conf    *confMachine // effects-conformance recorder (tests); see conformance.go

	Stats BankStats

	now sim.Cycle

	// fired holds the message of the deferred event being fired: a
	// dispatch takes a *Msg, and a pointer to a local would move it to
	// the heap. Handlers copy what they keep, so it is dead between
	// events.
	fired Msg
	// replay is the stack of queued requests processPending is
	// re-dispatching, for the same reason. A replay can stabilize its
	// line and replay the next request in a nested call, so each level
	// keeps its own slot; when a push moves the stack, an outer level's
	// pointer still reads its unchanged slot in the old array.
	replay []Msg
}

// NewBank builds an LLC bank/directory slice attached to the network at
// the given endpoint. port is where outbound protocol messages go (the
// mesh itself, or the model checker's port); memory is the (shared)
// backing store; mode selects the WritersBlock protocol delta
// (the bank must match its cores).
func NewBank(id network.Endpoint, port network.Port, params *Params, memory *mem.Memory, mode Mode) *Bank {
	flavor := dirFlavorFor(mode, params.NonSilentSharedEvictions)
	machine := dirMachines[flavor]
	return &Bank{
		id:      id,
		port:    port,
		params:  params,
		memory:  memory,
		array:   cache.NewArray(params.LLCLines, params.LLCWays),
		lines:   make(map[mem.Line]*dirLine),
		flavor:  flavor,
		machine: machine,
		cov:     machine.NewCoverage(),
	}
}

// Tick runs the bank's deferred events.
func (b *Bank) Tick(now sim.Cycle) {
	b.now = now
	b.events.Run(now, b.fire)
}

// fire runs one of the bank's deferred actions.
func (b *Bank) fire(ev deferred) {
	//wbsim:partial(dfPCUSend, dfPCULease) -- a bank schedules only its own kinds
	switch ev.kind {
	case dfBankSend:
		b.envs.send(b.port, b.now, b.id, ev.dst, &ev.m, b.params.DataFlits, b.params.CtrlFlits)
	case dfBankRetry, dfBankRequeue:
		b.fired = ev.m
		b.redispatch(&b.fired)
	case dfBankFetchDone:
		b.fetchDone(ev.line)
	case dfBankLease:
		b.fired = Msg{Line: ev.line}
		b.dispatch(dirEvLeaseExpired, &b.fired)
	default:
		panicf("bank %d: no action for deferred kind %d", b.id, ev.kind)
	}
}

// EventsDue reports whether Tick(now) would fire at least one deferred
// event. A bank with no due events has a no-op Tick (it only refreshes
// b.now, which every message handler sets itself), so the scheduler may
// skip it.
func (b *Bank) EventsDue(now sim.Cycle) bool {
	at, ok := b.events.NextAt()
	return ok && at <= now
}

// Quiescent reports whether the bank has no pending events, transactions,
// or queued requests.
func (b *Bank) Quiescent() bool {
	if !b.events.Empty() || len(b.evbuf) > 0 {
		return false
	}
	for _, dl := range b.lines {
		if dl.hasTxn || len(dl.pending) > 0 {
			return false
		}
	}
	return true
}

// Receive implements network.Receiver: it maps the message to its table
// event, fires the machine's row, and returns the message's envelope to
// the sender's free list. Request stats count only fresh arrivals,
// never table re-dispatches of queued requests.
func (b *Bank) Receive(now sim.Cycle, nm *network.Message) {
	b.now = now
	m, e := msgOf(nm)
	ev := dirEventOf(m.Type)
	if ev == dirEvRead {
		b.Stats.GetS++
	} else if ev == dirEvWrite {
		b.Stats.GetX++
	}
	b.dispatch(ev, m)
	e.release()
}

// dispatch fires the machine row for (current state of m's line, ev) and
// runs its action.
func (b *Bank) dispatch(ev dirEvent, m *Msg) {
	dl := b.find(m.Line)
	st := dirStateOf(dl)
	if b.trace != nil {
		b.trace(st, ev)
	}
	if b.conf != nil {
		b.conf.enter(int(st), int(ev), m.Line)
		defer b.conf.exit(func() int { return int(dirStateOf(b.find(m.Line))) })
	}
	b.machine.Fire(b.cov, int(st), int(ev))(b, dl, m)
}

// redispatch re-enters a queued or retried request through the table
// (without re-counting request stats).
func (b *Bank) redispatch(m *Msg) { b.dispatch(dirEventOf(m.Type), m) }

func (b *Bank) isSharer(dl *dirLine, ep network.Endpoint) bool {
	for _, s := range dl.sharers {
		if s == ep {
			return true
		}
	}
	return false
}

func (b *Bank) addSharer(dl *dirLine, ep network.Endpoint) {
	if !b.isSharer(dl, ep) {
		dl.sharers = append(dl.sharers, ep)
	}
}

func (b *Bank) removeSharer(dl *dirLine, ep network.Endpoint) {
	for i, s := range dl.sharers {
		if s == ep {
			dl.sharers = append(dl.sharers[:i], dl.sharers[i+1:]...)
			return
		}
	}
}

// ---------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------

// serveTearoff replies with uncacheable data without registering the
// reader as a sharer (Option 2 in Section 3.4 — livelock free).
func (b *Bank) serveTearoff(dl *dirLine, m *Msg) {
	if !dl.dataValid {
		panicf("bank %d: WB entry %v without valid data", b.id, dl.line)
	}
	b.Stats.UncacheableReads++
	b.sendAfter(b.params.LLCLatency, m.Requester,
		&Msg{Type: MsgTearoff, Line: m.Line, Requester: m.Requester, Data: dl.data, HasData: true})
}

// allocateAndFetch brings a line into the directory/LLC for a request,
// evicting a victim if needed. If no frame can be freed (every candidate
// is Busy/WB and the eviction buffer is full) a read is served
// uncacheably straight from memory and a write is retried via the pending
// mechanism of a temporary fetch entry — per Section 3.5.1, only reads
// need the uncacheable escape hatch; writes may wait.
func (b *Bank) allocateAndFetch(m *Msg) {
	victim := b.array.Victim(m.Line, func(e *cache.Entry) bool {
		dl := b.lines[e.Line]
		// Keep transient entries and any entry with a parked transaction
		// (a tardis TsShared line waiting out its leases for a write).
		return dl != nil && (dl.hasTxn || dl.kind == dirBusy || dl.kind == dirWB || dl.kind == dirFetching)
	})
	canEvict := victim != nil && (!victim.Valid() || len(b.evbuf) < b.params.EvictionBuf)
	if !canEvict {
		if m.Type == MsgGetS || m.Type == MsgRetryRd {
			// Uncacheable read straight from memory: the SoS load is
			// never blocked by directory resource exhaustion.
			b.Stats.UncacheableReads++
			b.Stats.UncacheableFull++
			b.Stats.MemReads++
			data := b.memory.ReadLine(m.Line)
			b.sendAfter(b.params.MemLatency, m.Requester,
				&Msg{Type: MsgTearoff, Line: m.Line, Requester: m.Requester, Data: data, HasData: true})
			return
		}
		// A write must wait for a frame. Hint the writer — the frames may
		// be held by WritersBlock entries whose lockdowns depend on the
		// writer's own SoS load, which must then bypass this write
		// (Section 3.5) — and retry after a backoff.
		b.sendAfter(b.params.TagLatency, m.Requester,
			&Msg{Type: MsgBlockedHint, Line: m.Line, Requester: m.Requester})
		b.events.After(b.now, sim.Cycle(b.params.LLCLatency), deferred{kind: dfBankRetry, m: *m})
		return
	}
	if victim.Valid() {
		b.startEviction(victim)
	}
	frame := b.array.Install(victim, m.Line)
	dl := b.newLine(m.Line, frame)
	dl.pending = append(dl.pending, *m)
	b.lines[m.Line] = dl
	b.Stats.MemReads++
	b.events.After(b.now, sim.Cycle(b.params.MemLatency), deferred{kind: dfBankFetchDone, line: m.Line})
}

// freshLine is a new directory entry allocated together with room for
// the request that creates it and for its first sharers, so a line's
// first touch costs one allocation.
type freshLine struct {
	dl      dirLine
	pending [1]Msg
	sharers [4]network.Endpoint
}

// newLine returns a Fetching entry for line in frame: a retired entry
// from spare, keeping the storage of its slices, or a new one.
func (b *Bank) newLine(line mem.Line, frame *cache.Entry) *dirLine {
	var dl *dirLine
	if n := len(b.spare); n > 0 {
		dl = b.spare[n-1]
		b.spare = b.spare[:n-1]
	} else {
		f := new(freshLine)
		dl = &f.dl
		dl.pending, dl.sharers = f.pending[:0], f.sharers[:0]
	}
	*dl = dirLine{line: line, kind: dirFetching, frame: frame, since: b.now,
		sharers: dl.sharers[:0], pending: dl.pending[:0],
		txn: dirTxn{ackFrom: dl.txn.ackFrom[:0], delayedFrom: dl.txn.delayedFrom[:0]}}
	return dl
}

// retireLine puts dl, which has left both the live directory and the
// eviction buffer, on spare.
func (b *Bank) retireLine(dl *dirLine) { b.spare = append(b.spare, dl) }

// fetchDone lands the memory fetch of line's Fetching entry and replays
// the requests queued on it.
func (b *Bank) fetchDone(line mem.Line) {
	dl := b.lines[line]
	if dl == nil || dl.kind != dirFetching {
		panicf("bank %d: fetch for %v landed on no Fetching entry", b.id, line)
	}
	dl.data = b.memory.ReadLine(line)
	dl.dataValid = true
	dl.dirty = false
	dl.kind = dirInvalid
	b.processPending(dl)
}

// ---------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------

// drainPendingReads serves every queued read with tear-off data, leaving
// writes queued in order (used on Busy -> WB transitions).
func (b *Bank) drainPendingReads(dl *dirLine) {
	writes := dl.pending[:0]
	for i := range dl.pending {
		if pm := &dl.pending[i]; pm.Type == MsgGetS || pm.Type == MsgRetryRd {
			b.serveTearoff(dl, pm)
		} else {
			writes = append(writes, *pm)
		}
	}
	clear(dl.pending[len(writes):])
	dl.pending = writes
}

// consumeDelayedAck accounts one lifted lockdown against the line's
// transaction: the ack is redirected to the writer (or, for an eviction,
// the eviction completion is re-checked).
func (b *Bank) consumeDelayedAck(dl *dirLine) {
	txn := &dl.txn
	txn.delayedPending--
	if txn.eviction {
		b.maybeFinishEviction(dl)
		return
	}
	b.sendAfter(b.params.TagLatency, txn.requester,
		&Msg{Type: MsgRedirAck, Line: dl.line, Requester: txn.requester})
}

// maybeCompleteRead finishes a shared-grant read once both the Unblock
// and (for 3-hop reads) the owner's clean copy have arrived.
func (b *Bank) maybeCompleteRead(dl *dirLine) {
	txn := &dl.txn
	if !dl.hasTxn || txn.write || txn.grantExcl {
		return
	}
	if !txn.gotUnblock || (txn.fwd && !txn.gotOwnerData) {
		return
	}
	if txn.fwd {
		dl.hasOwner = false
		b.addSharer(dl, txn.oldOwner)
	}
	b.addSharer(dl, txn.requester)
	dl.kind = dirShared
	dl.hasTxn = false
	b.processPending(dl)
}

// processPending re-dispatches queued requests once the line reaches a
// stable state, preserving arrival order. A tardis TsShared entry is
// stable only while no transaction is parked on it: the first queued
// write parks one, which stops the drain until the lease timer fires.
func (b *Bank) processPending(dl *dirLine) {
	for len(dl.pending) > 0 &&
		(dl.kind == dirInvalid || dl.kind == dirShared || dl.kind == dirExclusive ||
			(dl.kind == dirTsShared && !dl.hasTxn)) {
		b.replay = append(b.replay, dl.pending[0])
		dl.pending = slices.Delete(dl.pending, 0, 1)
		b.redispatch(&b.replay[len(b.replay)-1])
		b.replay = b.replay[:len(b.replay)-1]
	}
}

// ---------------------------------------------------------------------
// Evictions (core-initiated Put*, and directory-entry evictions)
// ---------------------------------------------------------------------

// startEviction moves a stable directory entry to the eviction buffer and
// invalidates its sharers/owner. WritersBlock entries are never selected
// as victims (the keep predicate in allocateAndFetch); entries that enter
// WB *because of* the eviction (a lockdown Nacks the eviction
// invalidation) stay in the buffer until the DelayedAck arrives, exactly
// as Section 3.5.1 prescribes.
func (b *Bank) startEviction(frame *cache.Entry) {
	dl := b.lines[frame.Line]
	if dl == nil {
		panicf("bank %d: evicting unknown line %v", b.id, frame.Line)
	}
	if dl.hasTxn || dl.kind == dirBusy || dl.kind == dirWB || dl.kind == dirFetching {
		panicf("bank %d: evicting line %v in state %v", b.id, frame.Line, dl.kind)
	}
	b.Stats.Evictions++
	b.array.Evict(frame)
	delete(b.lines, dl.line)
	dl.frame = nil

	if dl.kind == dirTsShared {
		// A leased entry cannot be invalidated — no sharer list to fan
		// out to. Park it in the eviction buffer until the last lease
		// has expired; the timer fires dirEvLeaseExpired through the
		// table (tardis.go).
		b.startTsEviction(dl)
		return
	}

	kind := dl.kind
	b.setKind(dl, dirBusy) // requests arriving mid-eviction queue in pending
	//wbsim:partial(dirFetching, dirBusy, dirWB, dirTsShared) -- the transient-state guard above panicked for the first three; TsShared took the early tardis branch
	switch kind {
	case dirInvalid:
		if dl.dirty {
			b.memory.WriteLine(dl.line, dl.data)
			b.Stats.MemWrites++
		}
		b.requeueOrphans(dl)
		b.retireLine(dl)
		return
	case dirShared:
		dl.openTxn(dirTxn{eviction: true, acksPending: len(dl.sharers)})
		dl.txn.ackFrom = append(dl.txn.ackFrom, dl.sharers...)
		for _, s := range dl.sharers {
			b.sendAfter(b.params.TagLatency, s,
				&Msg{Type: MsgInv, Line: dl.line, Requester: b.id, Eviction: true})
		}
		dl.sharers = dl.sharers[:0]
	case dirExclusive:
		dl.openTxn(dirTxn{eviction: true, acksPending: 1})
		dl.txn.ackFrom = append(dl.txn.ackFrom, dl.owner)
		b.sendAfter(b.params.TagLatency, dl.owner,
			&Msg{Type: MsgInv, Line: dl.line, Requester: b.id, Eviction: true})
		dl.hasOwner = false
	}
	dl.inEvBuf = true
	b.evbufPut(dl)
	if dl.txn.acksPending == 0 {
		b.maybeFinishEviction(dl)
	}
}

// maybeFinishEviction completes an eviction once every invalidation has
// been acknowledged (including delayed acks from lifted lockdowns).
func (b *Bank) maybeFinishEviction(dl *dirLine) {
	if dl.txn.acksPending > 0 || dl.txn.delayedPending > 0 {
		return
	}
	if dl.dirty && dl.dataValid {
		b.memory.WriteLine(dl.line, dl.data)
		b.Stats.MemWrites++
	}
	b.evbufDrop(dl.line)
	b.requeueOrphans(dl)
	b.retireLine(dl)
}

// evbufFind returns line's entry in the eviction buffer, or nil.
func (b *Bank) evbufFind(line mem.Line) *dirLine {
	for _, dl := range b.evbuf {
		if dl.line == line {
			return dl
		}
	}
	return nil
}

// evbufPut parks dl in the eviction buffer, in place of any entry
// for its line.
func (b *Bank) evbufPut(dl *dirLine) {
	i := 0
	for i < len(b.evbuf) && b.evbuf[i].line < dl.line {
		i++
	}
	if i < len(b.evbuf) && b.evbuf[i].line == dl.line {
		b.evbuf[i] = dl
		return
	}
	b.evbuf = slices.Insert(b.evbuf, i, dl)
}

// evbufDrop frees line's eviction-buffer slot.
func (b *Bank) evbufDrop(line mem.Line) {
	for i, dl := range b.evbuf {
		if dl.line == line {
			b.evbuf = slices.Delete(b.evbuf, i, i+1)
			return
		}
	}
}

// earlyDelayedFor reports how many DelayedAcks for line overtook
// their Nack.
func (b *Bank) earlyDelayedFor(line mem.Line) int {
	n := 0
	for _, l := range b.earlyDelayed {
		if l == line {
			n++
		}
	}
	return n
}

// requeueOrphans re-dispatches requests that were queued on an entry that
// no longer exists; they re-enter as fresh requests and allocate anew.
func (b *Bank) requeueOrphans(dl *dirLine) {
	for _, m := range dl.pending {
		b.events.After(b.now, 1, deferred{kind: dfBankRequeue, m: m})
	}
	dl.pending = dl.pending[:0]
}

// CheckInvariants panics if internal consistency is violated; tests call
// it after runs.
func (b *Bank) CheckInvariants() {
	//wbsim:nondet -- body only panics on violation; which violation fires first is immaterial
	for line, dl := range b.lines {
		if dl.line != line {
			panic("bank: map key mismatch")
		}
		//wbsim:partial(dirInvalid, dirFetching, dirBusy) -- these states carry no structural invariants to check
		switch dl.kind {
		case dirTsShared:
			if !dl.dataValid {
				panicf("bank %d: TsShared %v without data", b.id, line)
			}
			if dl.hasOwner || len(dl.sharers) > 0 {
				panicf("bank %d: TsShared %v tracks sharers/owner; leases replace both", b.id, line)
			}
		case dirShared:
			if len(dl.sharers) == 0 {
				panicf("bank %d: Shared %v with no sharers", b.id, line)
			}
			if !dl.dataValid {
				panicf("bank %d: Shared %v without data", b.id, line)
			}
		case dirExclusive:
			if !dl.hasOwner {
				panicf("bank %d: Exclusive %v without owner", b.id, line)
			}
		case dirWB:
			if !dl.hasTxn {
				panicf("bank %d: WB %v without transaction", b.id, line)
			}
		}
	}
}

// TransientLine describes one directory entry in a transient state, for
// hang diagnosis: which line, how long it has been transient, who the
// blocked requester is, and how much work is queued behind it.
type TransientLine struct {
	Bank      network.Endpoint
	Line      mem.Line
	State     string
	Age       sim.Cycle
	Pending   int // queued requests (e.g. writes behind a WritersBlock)
	HasTxn    bool
	Write     bool             // transaction is a write (the blocked writer)
	Eviction  bool             // transaction is a directory eviction
	Requester network.Endpoint // transaction requester (valid when HasTxn)
	AcksLeft  int              // invalidation acks outstanding
	Delayed   int              // DelayedAcks outstanding from lockdowns
	InEvBuf   bool

	// Wait-for detail: who the outstanding debts are owed by (the
	// diagnosis ledgers in dirTxn), and the forward/unblock legs a
	// non-eviction transaction is still waiting on.
	AckFrom      []network.Endpoint
	DelayedFrom  []network.Endpoint
	Fwd          bool // 3-hop read: owner copy expected
	GotOwnerData bool
	GotUnblock   bool
	OldOwner     network.Endpoint // valid when Fwd
}

// String renders one transient entry compactly.
func (t TransientLine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bank %d line=%v state=%s age=%d pending=%d", t.Bank, t.Line, t.State, t.Age, t.Pending)
	if t.HasTxn {
		role := "read"
		if t.Write {
			role = "write"
		}
		if t.Eviction {
			role = "evict"
		}
		fmt.Fprintf(&b, " txn{%s req=%d acksLeft=%d delayed=%d}", role, t.Requester, t.AcksLeft, t.Delayed)
	}
	if t.InEvBuf {
		b.WriteString(" evbuf")
	}
	return b.String()
}

// TransientLines returns the bank's transient directory entries (including
// the eviction buffer), oldest first. The order is deterministic.
func (b *Bank) TransientLines(now sim.Cycle) []TransientLine {
	var out []TransientLine
	collect := func(dl *dirLine) {
		if !dl.kind.transient() && !dl.hasTxn && len(dl.pending) == 0 {
			return
		}
		t := TransientLine{
			Bank:    b.id,
			Line:    dl.line,
			State:   dl.kind.String(),
			Age:     now - dl.since,
			Pending: len(dl.pending),
			InEvBuf: dl.inEvBuf,
		}
		if dl.hasTxn {
			t.HasTxn = true
			t.Write = dl.txn.write
			t.Eviction = dl.txn.eviction
			t.Requester = dl.txn.requester
			t.AcksLeft = dl.txn.acksPending
			t.Delayed = dl.txn.delayedPending
			t.AckFrom = append([]network.Endpoint(nil), dl.txn.ackFrom...)
			t.DelayedFrom = append([]network.Endpoint(nil), dl.txn.delayedFrom...)
			t.Fwd = dl.txn.fwd
			t.GotOwnerData = dl.txn.gotOwnerData
			t.GotUnblock = dl.txn.gotUnblock
			t.OldOwner = dl.txn.oldOwner
		}
		out = append(out, t)
	}
	//wbsim:nondet -- entries are sorted below before return
	for _, dl := range b.lines {
		collect(dl)
	}
	for _, dl := range b.evbuf {
		if _, dup := b.lines[dl.line]; !dup {
			collect(dl)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Age != out[j].Age {
			return out[i].Age > out[j].Age
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// DumpState renders non-stable directory entries for debugging, in
// line order so successive dumps of the same state are identical.
func (b *Bank) DumpState() string {
	var sb strings.Builder
	for _, line := range sortedLines(b.lines) {
		dl := b.lines[line]
		if dl.hasTxn || len(dl.pending) > 0 || dl.kind == dirBusy || dl.kind == dirWB {
			fmt.Fprintf(&sb, "bank %d line=%v kind=%v pending=%d", b.id, dl.line, dl.kind, len(dl.pending))
			if dl.hasTxn {
				fmt.Fprintf(&sb, " txn{write=%v evict=%v req=%d acksPend=%d delayed=%d}",
					dl.txn.write, dl.txn.eviction, dl.txn.requester, dl.txn.acksPending, dl.txn.delayedPending)
			}
			sb.WriteByte('\n')
		}
	}
	for _, dl := range b.evbuf {
		fmt.Fprintf(&sb, "bank %d EVBUF line=%v kind=%v\n", b.id, dl.line, dl.kind)
	}
	return sb.String()
}

// sortedLines returns the map's keys in ascending line order.
func sortedLines[V any](m map[mem.Line]V) []mem.Line {
	keys := make([]mem.Line, 0, len(m))
	//wbsim:nondet -- keys are sorted before use
	for line := range m {
		keys = append(keys, line)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// PeekWord returns the bank's current copy of a word if the directory
// holds valid data for its line (for post-run inspection).
func (b *Bank) PeekWord(addr mem.Addr) (mem.Word, bool) {
	dl := b.find(mem.LineOf(addr))
	if dl == nil || !dl.dataValid {
		return 0, false
	}
	return dl.data.Get(addr), true
}
