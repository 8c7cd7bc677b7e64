package coherence

import (
	"fmt"
	"slices"
	"strings"

	"wbsim/internal/cache"
	"wbsim/internal/coherence/table"
	"wbsim/internal/isa"
	"wbsim/internal/mem"
	"wbsim/internal/network"
	"wbsim/internal/sim"
)

// Private cache line states (stored in cache.Entry.State).
const (
	stateInvalid = iota
	stateS
	stateE
	stateM
)

// DataHooks is the value-delivery half of the core interface: the PCU
// calls these when a transaction architecturally binds. Values bind
// synchronously — LoadDone/AtomicDone fire at the moment of binding, and
// the core accounts for the remaining pipeline latency itself. This
// guarantees that an invalidation processed by the PCU always sees a
// consistent picture of which loads have performed — the property both
// squash-and-re-execute and lockdown correctness depend on.
type DataHooks interface {
	// LoadDone delivers the value of an outstanding load. tearoff is true
	// when the value is an uncacheable tear-off copy, which only an
	// ordered (SoS) load may consume; the core must re-request for
	// unordered loads once they become ordered (Section 3.4).
	LoadDone(now sim.Cycle, token uint64, value mem.Word, tearoff bool)
	// AtomicDone delivers the old memory value of an atomic RMW.
	AtomicDone(now sim.Cycle, token uint64, old mem.Word)
	// WritePerformed signals that write permission for line was acquired
	// (data + all invalidation acks); the store buffer may drain.
	WritePerformed(now sim.Cycle, line mem.Line)
}

// OrderingHooks is the consistency-ordering half of the core interface:
// how the core reacts when the protocol takes a line away. Only the
// invalidation and eviction paths consult it, which keeps the lockdown
// machinery behind a narrow seam.
type OrderingHooks interface {
	// OnInvalidation is called for every invalidation that reaches the
	// core, whether or not the line is cached (silent evictions make
	// cache-miss invalidations possible). In squash mode the core
	// squashes matching M-speculative loads and returns false (ack). In
	// lockdown mode it returns true if a lockdown matches — the PCU then
	// Nacks the directory — and remembers to lift it later via
	// PCU.LockdownLifted.
	OnInvalidation(now sim.Cycle, line mem.Line) (nack bool)
	// HasLockdown reports whether any M-speculative load or LDT entry
	// matches line (used to turn owned-line evictions into
	// downgrade-in-place per Section 3.8).
	HasLockdown(line mem.Line) bool
	// OnOwnedEviction is called when an owned line leaves the private
	// hierarchy non-silently (PutM/PutE). Squash-based cores must squash
	// matching M-speculative loads, because the directory will no longer
	// send them invalidations (Section 3.8). Lockdown cores never see
	// this: their owned evictions under a lockdown become PutS.
	OnOwnedEviction(now sim.Cycle, line mem.Line)
}

// CoreHooks is what a core hands to NewPCU: both halves together.
type CoreHooks interface {
	DataHooks
	OrderingHooks
}

// LoadStatus is the synchronous outcome of PCU.Load.
type LoadStatus int

// Load outcomes.
const (
	LoadHit     LoadStatus = iota // value returned now; ready after DoneAt
	LoadPending                   // miss: LoadDone will fire later
	LoadNoMSHR                    // structural stall: retry next cycle
)

// LoadResult is returned by PCU.Load.
type LoadResult struct {
	Status LoadStatus
	Value  mem.Word
	DoneAt sim.Cycle // for hits: when dependents may wake
}

// pcuTxn is the protocol state of one outstanding miss, held by value in
// its MSHR entry.
type pcuTxn struct {
	write      bool
	upgrade    bool // GetX sent while holding S (no data expected)
	lostLine   bool // the S copy was invalidated while the upgrade was in flight
	blocked    bool // a BlockedHint arrived: this write waits on a WritersBlock
	atomicOnly bool // write issued for an atomic RMW (not a store prefetch)

	loads   []loadWaiter
	atomics []atomicWaiter

	gotGrant   bool
	acksNeeded int
	acksGot    int
	data       mem.LineData
	hasData    bool
}

// pcuMSHR is one entry of a PCU's MSHR file.
type pcuMSHR = cache.MSHR[pcuTxn]

// begin claims ms's transaction for a new miss: it is reset, keeping the
// storage of the waiter slices its entry's previous holder grew.
func begin(ms *pcuMSHR) *pcuTxn {
	t := &ms.Txn
	*t = pcuTxn{loads: t.loads[:0], atomics: t.atomics[:0]}
	return t
}

type loadWaiter struct {
	token uint64
	addr  mem.Addr
}

type atomicWaiter struct {
	token   uint64
	addr    mem.Addr
	fn      isa.Fn
	operand mem.Word
}

// wbEntry holds an evicted owned line until its Put is acknowledged. A
// stale PutAck means the directory handed ownership to a forward that is
// still in flight to us (the ack travels on the response network and can
// overtake the forward), so the entry must survive until that forward —
// or an eviction invalidation — is served from it.
type wbEntry struct {
	line      mem.Line
	data      mem.LineData
	dirty     bool
	staleAck  bool // stale PutAck received; a forward will consume this
	servedFwd bool // a forward/invalidation was served from this entry
}

// PCUStats counts core-side protocol events.
type PCUStats struct {
	Loads           uint64 // load accesses presented to the PCU
	LoadL1Hits      uint64
	LoadL2Hits      uint64
	LoadMisses      uint64
	TearoffsUsed    uint64 // tear-off deliveries (consumable only if ordered)
	Nacks           uint64 // invalidations nacked due to lockdowns
	DelayedAcks     uint64
	InvsReceived    uint64
	SoSBypasses     uint64 // SoS loads re-launched past a blocked write MSHR
	RetriedReads    uint64
	Stores          uint64
	StoreMisses     uint64
	Evictions       uint64
	LockdownPutS    uint64 // owned evictions downgraded in place under a lockdown
	AtomicsExecuted uint64
	LeasesTaken     uint64 // tardis: leased shared copies installed
	LeaseExpiries   uint64 // tardis: leases that lapsed (copy self-downgraded)
}

// PCU is a core's private cache unit: L1+L2 acting as a single coherence
// point. The L2 array holds the coherence state and data; the L1 array is
// a presence filter that only affects hit latency.
type PCU struct {
	id     network.Endpoint
	port   network.Port
	params *Params
	home   HomeFunc
	data   DataHooks
	order  OrderingHooks
	mode   Mode
	events sim.Queue[deferred]

	machine *table.Machine[pcuAction]
	cov     []uint64
	trace   func(pcuState, pcuEvent) // test hook: observe dispatches
	conf    *confMachine             // effects-conformance recorder (tests); see conformance.go

	l1    *cache.Array
	l2    *cache.Array
	mshrs *cache.MSHRFile[pcuTxn]
	wbBuf []wbEntry // in line order; a handful at most

	// envs is the free list of the envelopes this PCU sends in.
	envs envelopes
	// boundLoads and boundAtomics hold the waiters of the transaction
	// being retired while they bind (retire).
	boundLoads   []loadWaiter
	boundAtomics []atomicWaiter

	// leases maps each leased shared line to its expiry cycle (tardis
	// only; nil in every other mode). Entries are stamps, not state: the
	// model checker folds only their presence into fingerprints.
	leases map[mem.Line]sim.Cycle

	Stats PCUStats

	// blockedWrites counts the write transactions a BlockedHint has
	// marked blocked and that have not completed yet. Figure 8 puts them
	// at about one per kilo-store, so while it is 0 PromoteSoS returns
	// without searching the MSHRs for one.
	blockedWrites int

	now sim.Cycle
	// activeAt is the last cycle a message arrived or a deferred event
	// fired: the only ways the PCU changes the core's view of memory
	// without the core calling it. The kernel re-ticks a core whose PCU
	// was active this cycle (see core.System.Step).
	activeAt sim.Cycle
}

// NewPCU builds a private cache unit attached at endpoint id. port is
// where outbound protocol messages go (the mesh itself, or the model
// checker's port).
func NewPCU(id network.Endpoint, port network.Port, params *Params, home HomeFunc, hooks CoreHooks, mode Mode) *PCU {
	machine := pcuMachines[mode]
	p := &PCU{
		id:      id,
		port:    port,
		params:  params,
		home:    home,
		data:    hooks,
		order:   hooks,
		mode:    mode,
		machine: machine,
		cov:     machine.NewCoverage(),
		l1:      cache.NewArray(params.L1Lines, params.L1Ways),
		l2:      cache.NewArray(params.L2Lines, params.L2Ways),
		mshrs:   cache.NewMSHRFile[pcuTxn](params.MSHRs, params.ReservedMSHRs),
	}
	if mode == ModeTardis {
		p.leases = make(map[mem.Line]sim.Cycle)
	}
	return p
}

// Tick runs deferred sends.
func (p *PCU) Tick(now sim.Cycle) {
	p.now = now
	p.activeAt = now
	p.events.Run(now, p.fire)
}

// fire runs one of the PCU's deferred actions.
func (p *PCU) fire(ev deferred) {
	//wbsim:partial(dfBankSend, dfBankRetry, dfBankFetchDone, dfBankRequeue, dfBankLease) -- a PCU schedules only its own kinds
	switch ev.kind {
	case dfPCUSend:
		p.envs.send(p.port, p.now, p.id, ev.dst, &ev.m, p.params.DataFlits, p.params.CtrlFlits)
	case dfPCULease:
		p.leaseLapsed(ev.line, ev.expiry)
	default:
		panicf("pcu %d: no action for deferred kind %d", p.id, ev.kind)
	}
}

// ActiveAt reports whether a message arrived or a deferred event fired
// at cycle now.
func (p *PCU) ActiveAt(now sim.Cycle) bool { return p.activeAt == now }

// EventsDue reports whether Tick(now) would fire at least one deferred
// send. Like the bank, a PCU with nothing due has a no-op Tick, so the
// scheduler may skip it.
func (p *PCU) EventsDue(now sim.Cycle) bool {
	at, ok := p.events.NextAt()
	return ok && at <= now
}

// Quiescent reports whether the PCU has no outstanding transactions.
func (p *PCU) Quiescent() bool {
	return p.events.Empty() && p.mshrs.InUse() == 0 && len(p.wbBuf) == 0
}

// CheckInvariants panics if the blocked-write count disagrees with the
// MSHRs it summarizes — in particular if a drained PCU still counts a
// blocked write, which would leave PromoteSoS searching forever. Run
// calls it after every run, beside Bank.CheckInvariants.
func (p *PCU) CheckInvariants() {
	n := 0
	p.mshrs.ForEach(func(m *pcuMSHR) {
		if m.Txn.write && m.Txn.blocked {
			n++
		}
	})
	if n != p.blockedWrites {
		panicf("pcu %d: blocked-write count %d, but %d blocked write MSHRs", p.id, p.blockedWrites, n)
	}
}

// sendAfter schedules a message after delay cycles of local processing.
// The message is copied into the queued event, so callers may pass
// short-lived stack values.
func (p *PCU) sendAfter(delay int, dst network.Endpoint, m *Msg) {
	if p.conf != nil {
		p.conf.send(dst, m)
	}
	p.events.After(p.now, sim.Cycle(delay), deferred{kind: dfPCUSend, dst: dst, m: *m})
}

// ---------------------------------------------------------------------
// Core-facing operations
// ---------------------------------------------------------------------

// Load presents a load to the cache hierarchy. ordered indicates the load
// is ordered with respect to older loads (it is — or is about to become —
// the SoS load), which entitles it to the reserved MSHR pool and to
// consume tear-off data.
func (p *PCU) Load(now sim.Cycle, token uint64, addr mem.Addr, ordered bool) LoadResult {
	p.now = now
	p.Stats.Loads++
	line := mem.LineOf(addr)
	if e := p.l2.Lookup(line); e != nil && e.State != stateInvalid && !p.leaseExpired(line, e) {
		lat := p.params.L2Latency
		if l1e := p.l1.Lookup(line); l1e != nil {
			lat = p.params.L1Latency
			p.l1.Touch(l1e)
			p.Stats.LoadL1Hits++
		} else {
			p.installL1(line)
			p.Stats.LoadL2Hits++
		}
		p.l2.Touch(e)
		return LoadResult{Status: LoadHit, Value: e.Data.Get(addr), DoneAt: now + sim.Cycle(lat)}
	}
	p.Stats.LoadMisses++
	// Outstanding transaction for this line?
	if m := p.mshrs.Lookup(line); m != nil {
		txn := &m.Txn
		txn.loads = append(txn.loads, loadWaiter{token: token, addr: addr})
		if txn.write && txn.blocked && ordered {
			// Do not let the SoS load wait behind a blocked write —
			// Section 3.5.2. Launch its own read on a reserved MSHR.
			p.bypassBlockedWrite(m, token)
		}
		return LoadResult{Status: LoadPending}
	}
	// Allocate a fresh read MSHR.
	var ms *pcuMSHR
	msgType := MsgGetS
	if ordered {
		ms = p.mshrs.AllocateReserved(line)
		if ms != nil && ms.Reserved {
			msgType = MsgRetryRd
			p.Stats.RetriedReads++
		}
	} else {
		ms = p.mshrs.Allocate(line)
	}
	if ms == nil {
		return LoadResult{Status: LoadNoMSHR}
	}
	txn := begin(ms)
	txn.loads = append(txn.loads, loadWaiter{token: token, addr: addr})
	p.sendAfter(p.params.L2Latency, p.home(line), &Msg{Type: msgType, Line: line, Requester: p.id})
	return LoadResult{Status: LoadPending}
}

// bypassBlockedWrite moves the SoS load with the given token off a
// blocked write MSHR onto its own reserved read MSHR.
func (p *PCU) bypassBlockedWrite(writeMSHR *pcuMSHR, token uint64) {
	wtxn := &writeMSHR.Txn
	if !slices.ContainsFunc(wtxn.loads, func(lw loadWaiter) bool { return lw.token == token }) {
		return
	}
	ms := p.mshrs.AllocateReserved(writeMSHR.Line)
	if ms == nil {
		// Cannot happen by construction: the reserved pool is sized so
		// the single SoS load always finds an entry.
		panicf("pcu %d: no reserved MSHR for SoS bypass", p.id)
	}
	p.Stats.SoSBypasses++
	txn := begin(ms)
	kept := wtxn.loads[:0]
	for _, lw := range wtxn.loads {
		if lw.token == token {
			txn.loads = append(txn.loads, lw)
		} else {
			kept = append(kept, lw)
		}
	}
	wtxn.loads = kept
	p.sendAfter(p.params.TagLatency, p.home(writeMSHR.Line),
		&Msg{Type: MsgRetryRd, Line: writeMSHR.Line, Requester: p.id})
}

// PromoteSoS tells the PCU that the waiting load with the given token is
// now the SoS load. If it is piggybacked on a blocked write the PCU
// launches the bypass read; otherwise this is a no-op. The core calls
// this whenever its SoS designation changes while the load is pending.
func (p *PCU) PromoteSoS(now sim.Cycle, token uint64, addr mem.Addr) {
	p.now = now
	if p.blockedWrites == 0 {
		return
	}
	line := mem.LineOf(addr)
	var buf [4]*pcuMSHR
	for _, m := range p.mshrs.LookupAll(line, buf[:0]) {
		if m.Txn.write && m.Txn.blocked {
			p.bypassBlockedWrite(m, token)
			return
		}
	}
}

// StorePrefetch requests write permission for line ahead of the store
// reaching the store-buffer head. It is safe to call redundantly.
func (p *PCU) StorePrefetch(now sim.Cycle, line mem.Line) {
	p.now = now
	if e := p.l2.Lookup(line); e != nil && (e.State == stateE || e.State == stateM) {
		return
	}
	if p.mshrs.Lookup(line) != nil {
		return // read or write already in flight; SB retries if needed
	}
	ms := p.mshrs.Allocate(line)
	if ms == nil {
		return // MSHRs full; SB will retry
	}
	txn := begin(ms)
	txn.write = true
	if e := p.l2.Lookup(line); e != nil && e.State == stateS {
		txn.upgrade = true
	}
	p.Stats.StoreMisses++
	p.sendAfter(p.params.L2Latency, p.home(line),
		&Msg{Type: MsgGetX, Line: line, Requester: p.id, Upgrade: txn.upgrade})
}

// StoreWrite performs the store at the head of the store buffer if the
// core holds write permission, returning true on success. On failure it
// (re-)requests permission and the store buffer retries.
func (p *PCU) StoreWrite(now sim.Cycle, addr mem.Addr, value mem.Word) bool {
	p.now = now
	line := mem.LineOf(addr)
	if e := p.l2.Lookup(line); e != nil && (e.State == stateE || e.State == stateM) {
		e.State = stateM
		e.Dirty = true
		e.Data.Set(addr, value)
		p.l2.Touch(e)
		p.Stats.Stores++
		return true
	}
	p.StorePrefetch(now, line)
	return false
}

// AtomicExec performs an atomic read-modify-write. If the line is owned
// it executes immediately (the old value is returned through AtomicDone
// at once); otherwise it acquires ownership first. Returns false on a
// structural (MSHR) stall.
func (p *PCU) AtomicExec(now sim.Cycle, token uint64, addr mem.Addr, fn isa.Fn, operand mem.Word) bool {
	p.now = now
	line := mem.LineOf(addr)
	if e := p.l2.Lookup(line); e != nil && (e.State == stateE || e.State == stateM) {
		e.State = stateM
		e.Dirty = true
		old := e.Data.Get(addr)
		e.Data.Set(addr, isa.EvalALU(fn, old, operand))
		p.Stats.AtomicsExecuted++
		p.data.AtomicDone(now, token, old)
		return true
	}
	if m := p.mshrs.Lookup(line); m != nil {
		txn := &m.Txn
		if txn.write {
			txn.atomics = append(txn.atomics, atomicWaiter{token: token, addr: addr, fn: fn, operand: operand})
			return true
		}
		// A read is in flight; wait for it to settle before acquiring
		// ownership (the core retries).
		return false
	}
	ms := p.mshrs.Allocate(line)
	if ms == nil {
		return false
	}
	txn := begin(ms)
	txn.write, txn.atomicOnly = true, true
	txn.atomics = append(txn.atomics, atomicWaiter{token: token, addr: addr, fn: fn, operand: operand})
	if e := p.l2.Lookup(line); e != nil && e.State == stateS {
		txn.upgrade = true
	}
	p.sendAfter(p.params.L2Latency, p.home(line),
		&Msg{Type: MsgGetX, Line: line, Requester: p.id, Atomic: true, Upgrade: txn.upgrade})
	return true
}

// LockdownLifted sends the delayed invalidation acknowledgement for line
// once the last lockdown covering it lifts (the core tracks S bits).
func (p *PCU) LockdownLifted(now sim.Cycle, line mem.Line) {
	p.now = now
	p.Stats.DelayedAcks++
	p.sendAfter(p.params.TagLatency, p.home(line),
		&Msg{Type: MsgDelayedAck, Line: line, Requester: p.id})
}

// HasLineShared reports whether the line is present (any readable state).
func (p *PCU) HasLineShared(line mem.Line) bool {
	e := p.l2.Lookup(line)
	return e != nil && e.State != stateInvalid
}

// HasWritePermission reports whether the line is owned (E/M).
func (p *PCU) HasWritePermission(line mem.Line) bool {
	e := p.l2.Lookup(line)
	return e != nil && (e.State == stateE || e.State == stateM)
}

// PeekWord returns the cached value of addr for tests (false if absent).
func (p *PCU) PeekWord(addr mem.Addr) (mem.Word, bool) {
	e := p.l2.Lookup(mem.LineOf(addr))
	if e == nil || e.State == stateInvalid {
		return 0, false
	}
	return e.Data.Get(addr), true
}

// ---------------------------------------------------------------------
// Network-facing handlers
// ---------------------------------------------------------------------

// Receive implements network.Receiver: it dispatches the message, then
// returns its envelope to the sender's free list.
func (p *PCU) Receive(now sim.Cycle, nm *network.Message) {
	p.now = now
	p.activeAt = now
	m, e := msgOf(nm)
	p.dispatch(m)
	e.release()
}

// dispatch classifies a message, derives the line's dispatch state from
// its outstanding MSHRs, and fires the transition row. A read and a
// write MSHR can coexist (SoS bypass of a blocked write); the row's
// action receives both, resolved once here.
func (p *PCU) dispatch(m *Msg) {
	ev := pcuEventOf(m.Type)
	rd, wr := p.lineMSHRs(m.Line)
	st := pcuStateOf(rd, wr)
	if p.trace != nil {
		p.trace(st, ev)
	}
	if p.conf != nil {
		p.conf.enter(int(st), int(ev), m.Line)
		defer p.conf.exit(func() int { return int(p.lineState(m.Line)) })
	}
	p.machine.Fire(p.cov, int(st), int(ev))(p, m, rd, wr)
}

// lineMSHRs returns line's oldest outstanding read and write MSHRs
// (either may be nil).
func (p *PCU) lineMSHRs(line mem.Line) (rd, wr *pcuMSHR) {
	var buf [4]*pcuMSHR
	for _, ms := range p.mshrs.LookupAll(line, buf[:0]) {
		if ms.Txn.write {
			if wr == nil {
				wr = ms
			}
		} else if rd == nil {
			rd = ms
		}
	}
	return rd, wr
}

// lineState rederives the line's table dispatch state from its
// outstanding MSHRs (conformance recorder).
func (p *PCU) lineState(line mem.Line) pcuState { return pcuStateOf(p.lineMSHRs(line)) }

// retire frees ms and returns its waiters, copied out of the entry.
// The entry is freed before they bind, so a load a binding issues
// starts a transaction of its own instead of joining the finished one;
// that load may claim the freed entry and reuse its waiter storage,
// which the copies do not share. Binding calls only the core's
// delivery hooks, which never complete another transaction, so retires
// do not nest and one copy buffer serves them all.
func (p *PCU) retire(ms *pcuMSHR) ([]loadWaiter, []atomicWaiter) {
	p.boundLoads = append(p.boundLoads[:0], ms.Txn.loads...)
	p.boundAtomics = append(p.boundAtomics[:0], ms.Txn.atomics...)
	p.mshrs.Free(ms)
	return p.boundLoads, p.boundAtomics
}

// maybeCompleteWrite finishes a write transaction once the grant and all
// acks (direct InvAcks plus redirected WritersBlock acks) have arrived.
func (p *PCU) maybeCompleteWrite(ms *pcuMSHR) {
	txn := &ms.Txn
	if !txn.gotGrant || txn.acksGot < txn.acksNeeded {
		return
	}
	line := ms.Line
	var data mem.LineData
	switch {
	case txn.hasData:
		data = txn.data
	case txn.upgrade && !txn.lostLine:
		e := p.l2.Lookup(line)
		if e == nil || e.State != stateS {
			panicf("pcu %d: upgrade completion for %v without S copy", p.id, line)
		}
		data = e.Data
	default:
		panicf("pcu %d: write grant for %v without data", p.id, line)
	}
	p.install(line, data, stateM)
	p.sendAfter(p.params.TagLatency, p.home(line),
		&Msg{Type: MsgUnblock, Line: line, Requester: p.id})

	if txn.blocked {
		p.blockedWrites--
	}
	loads, atomics := p.retire(ms)

	// Atomics execute in order against the freshly-owned line.
	e := p.l2.Lookup(line)
	for _, aw := range atomics {
		old := e.Data.Get(aw.addr)
		e.Data.Set(aw.addr, isa.EvalALU(aw.fn, old, aw.operand))
		e.Dirty = true
		p.Stats.AtomicsExecuted++
		p.data.AtomicDone(p.now, aw.token, old)
	}
	// Loads that piggybacked on the write bind against the line now.
	for _, lw := range loads {
		p.data.LoadDone(p.now, lw.token, e.Data.Get(lw.addr), false)
	}
	p.data.WritePerformed(p.now, line)
}

// ownedData returns the current data for a line this core owns, whether
// it is still cached or sitting in the writeback buffer after an eviction
// whose Put lost a race with this forward. A writeback-buffer hit counts
// as serving the in-flight forward.
func (p *PCU) ownedData(line mem.Line) (mem.LineData, bool) {
	if e := p.l2.Lookup(line); e != nil && (e.State == stateE || e.State == stateM) {
		return e.Data, true
	}
	if wb := p.wbFind(line); wb != nil {
		data := wb.data
		p.consumeWB(wb)
		return data, true
	}
	return mem.LineData{}, false
}

// consumeWB marks a writeback-buffer entry as having served a forward and
// frees it if its stale ack already arrived (wb is invalid from then on).
func (p *PCU) consumeWB(wb *wbEntry) {
	wb.servedFwd = true
	if wb.staleAck {
		p.wbDrop(wb.line)
	}
}

// wbFind returns line's writeback-buffer entry, or nil. The pointer is
// valid until the buffer next changes.
func (p *PCU) wbFind(line mem.Line) *wbEntry {
	for i := range p.wbBuf {
		if p.wbBuf[i].line == line {
			return &p.wbBuf[i]
		}
	}
	return nil
}

// wbHold buffers an evicted owned line until its Put is acknowledged,
// replacing any older entry for the line.
func (p *PCU) wbHold(line mem.Line, data mem.LineData, dirty bool) {
	e := wbEntry{line: line, data: data, dirty: dirty}
	i := 0
	for i < len(p.wbBuf) && p.wbBuf[i].line < line {
		i++
	}
	if i < len(p.wbBuf) && p.wbBuf[i].line == line {
		p.wbBuf[i] = e
		return
	}
	p.wbBuf = slices.Insert(p.wbBuf, i, e)
}

// wbDrop frees line's writeback-buffer entry.
func (p *PCU) wbDrop(line mem.Line) {
	for i := range p.wbBuf {
		if p.wbBuf[i].line == line {
			p.wbBuf = slices.Delete(p.wbBuf, i, i+1)
			return
		}
	}
}

// ---------------------------------------------------------------------
// Fills and evictions
// ---------------------------------------------------------------------

// install places a line in the private hierarchy, evicting as needed.
func (p *PCU) install(line mem.Line, data mem.LineData, state int) {
	e := p.l2.Lookup(line)
	if e == nil {
		victim := p.l2.Victim(line, func(v *cache.Entry) bool {
			// Keep lines with in-flight transactions (e.g. upgrades).
			return p.mshrs.Lookup(v.Line) != nil
		})
		if victim == nil {
			panicf("pcu %d: no victim for %v", p.id, line)
		}
		if victim.Valid() {
			p.evictLine(victim)
		}
		e = p.l2.Install(victim, line)
	}
	e.Data = data
	e.State = state
	e.Dirty = state == stateM
	p.l2.Touch(e)
	p.installL1(line)
}

// installL1 records L1 presence for latency modelling.
func (p *PCU) installL1(line mem.Line) {
	if p.l1.Lookup(line) != nil {
		return
	}
	victim := p.l1.Victim(line, nil)
	if victim.Valid() {
		p.l1.Evict(victim)
	}
	p.l1.Install(victim, line)
}

// dropLine removes a line from both arrays (invalidation).
func (p *PCU) dropLine(line mem.Line) {
	if e := p.l1.Lookup(line); e != nil {
		p.l1.Evict(e)
	}
	if e := p.l2.Lookup(line); e != nil {
		p.l2.Evict(e)
	}
}

// evictLine handles a capacity eviction from the private hierarchy.
// Shared lines are evicted silently (the paper's chosen baseline).
// Owned lines are written back — unless a lockdown covers the line, in
// which case the eviction becomes a downgrade-in-place (PutS): the core
// stays in the sharer list so a future writer's invalidation still finds
// the lockdown (Section 3.8).
func (p *PCU) evictLine(e *cache.Entry) {
	line := e.Line
	state := e.State
	data := e.Data
	p.Stats.Evictions++
	p.dropLine(line)
	if state == stateS {
		if !p.params.NonSilentSharedEvictions {
			return // silent (the paper's chosen baseline)
		}
		// Section 3.8: under a lockdown, a non-silent eviction becomes
		// silent so a later writer's invalidation still reaches the
		// core; in squash mode it must squash M-speculative loads on
		// the line instead (the directory stops notifying us).
		if p.mode == ModeLockdown && p.order.HasLockdown(line) {
			p.Stats.LockdownPutS++ // counted as a lockdown-forced silent eviction
			return
		}
		// Leaving the sharer list ends invalidation delivery for this
		// line: the core must squash any load still depending on it.
		p.order.OnOwnedEviction(p.now, line)
		p.sendAfter(p.params.TagLatency, p.home(line),
			&Msg{Type: MsgPutSh, Line: line, Requester: p.id})
		return
	}
	if p.mode == ModeLockdown && p.order.HasLockdown(line) {
		p.Stats.LockdownPutS++
		p.wbHold(line, data, state == stateM)
		p.sendAfter(p.params.TagLatency, p.home(line),
			&Msg{Type: MsgPutS, Line: line, Requester: p.id, Data: data, HasData: true})
		return
	}
	p.order.OnOwnedEviction(p.now, line)
	p.wbHold(line, data, state == stateM)
	t := MsgPutE
	hasData := false
	if state == stateM {
		t = MsgPutM
		hasData = true
	}
	msg := &Msg{Type: t, Line: line, Requester: p.id}
	if hasData {
		msg.Data = data
		msg.HasData = true
	}
	p.sendAfter(p.params.TagLatency, p.home(line), msg)
}

// MSHRWait describes one outstanding miss for hang diagnosis: the line,
// its home bank, and what the transaction is still waiting on.
type MSHRWait struct {
	Line     mem.Line
	Home     network.Endpoint
	Write    bool
	Blocked  bool // write parked behind a WritersBlock (Hint received)
	GotGrant bool // data/permission arrived; acks may still be missing
	AcksLeft int  // invalidation acks the writer still expects
	Reserved bool // allocated from the SoS-reserved pool
}

// WBWait describes one writeback-buffer entry for hang diagnosis. An
// entry with StaleAck and no ServedFwd is the classic orphan signature:
// the directory promised a forward that has not arrived.
type WBWait struct {
	Line      mem.Line
	Dirty     bool
	StaleAck  bool
	ServedFwd bool
}

// PCUWaitSnapshot is the core-side half of a wait-for graph: what this
// PCU is waiting on (MSHRs) and what it is holding back (writeback
// buffer entries awaiting forwards). Order is deterministic.
type PCUWaitSnapshot struct {
	Core  network.Endpoint
	MSHRs []MSHRWait
	WBBuf []WBWait
}

// WaitSnapshot captures the PCU's outstanding transactions for hang
// diagnosis.
func (p *PCU) WaitSnapshot() PCUWaitSnapshot {
	s := PCUWaitSnapshot{Core: p.id}
	p.mshrs.ForEach(func(m *pcuMSHR) {
		t := &m.Txn
		w := MSHRWait{
			Line:     m.Line,
			Home:     p.home(m.Line),
			Write:    t.write,
			Blocked:  t.blocked,
			GotGrant: t.gotGrant,
			Reserved: m.Reserved,
		}
		if t.acksNeeded > t.acksGot {
			w.AcksLeft = t.acksNeeded - t.acksGot
		}
		s.MSHRs = append(s.MSHRs, w)
	})
	for _, wb := range p.wbBuf {
		s.WBBuf = append(s.WBBuf, WBWait{
			Line: wb.line, Dirty: wb.dirty, StaleAck: wb.staleAck, ServedFwd: wb.servedFwd,
		})
	}
	return s
}

// DumpState renders MSHR and writeback-buffer state for debugging.
func (p *PCU) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pcu %d: mshrs=%d wbBuf=%d\n", p.id, p.mshrs.InUse(), len(p.wbBuf))
	p.mshrs.ForEach(func(m *pcuMSHR) {
		t := &m.Txn
		fmt.Fprintf(&b, "  mshr line=%v write=%v upgrade=%v blocked=%v grant=%v acks=%d/%d loads=%d atomics=%d\n",
			m.Line, t.write, t.upgrade, t.blocked, t.gotGrant, t.acksGot, t.acksNeeded, len(t.loads), len(t.atomics))
	})
	for _, wb := range p.wbBuf {
		fmt.Fprintf(&b, "  wb line=%v dirty=%v staleAck=%v servedFwd=%v\n",
			wb.line, wb.dirty, wb.staleAck, wb.servedFwd)
	}
	return b.String()
}
