package coherence

// Copy-on-write model states. A Model is a small header over component
// snapshots: one pcuSnap per core (the private cache unit together with
// the model core driving it) and one bankSnap per LLC bank (the bank
// with its directory lines, eviction buffer, early DelayedAcks, event
// queue, and the backing memory of the lines homed there). The header
// itself holds the in-flight network multiset and the shadow state
// (latest versions, the violation).
//
// A child (ModelPool.Child) copies the header and shares every snapshot
// with its parent, taking a reference on each. A choice names the one
// component it can touch (a delivery its destination, every other
// choice its core or bank), and Apply privatizes exactly that snapshot
// before running it: a snapshot other models still hold is deep-copied
// into a free one (cloneFrom), a snapshot only this model holds is
// mutated in place. So a shared snapshot is never written, and a child
// copies one component instead of the whole system. Each snapshot
// caches its fingerprint sections (model.go), so a child re-encodes
// only what it privatized, the network and the shadow.
//
// In-flight messages are shared too: a child copies the net slice of
// flight pointers, not the messages. A flight is the model's copy of a
// sent message (modelPort.put). A flight is immutable, and a receiving
// component neither keeps nor edits it: a bank copies the requests it
// queues.
//
// A component's mutable state holds no pointer the copy would have to
// translate but its cache frames and directory entries: pending events
// are values naming lines and messages, MSHR transactions live by value
// in their entries, which the file orders by stamp, and the write-back
// and eviction buffers are short slices. So copying a snapshot is a run
// of slice copies, plus a copy of each directory entry.
//
// Snapshots and flights carry reference counts. When a model is
// released its references are dropped; an object whose count reaches
// zero goes onto the releasing pool's free list, and cloneFrom later
// reuses a snapshot's maps, slices, arena and cache frames. A
// snapshot's arena is reset only while cloneFrom overwrites it as a
// whole, and grows only past the slots its current contents use, so
// nothing live is handed out twice. The free lists a simulated PCU or
// bank keeps (envelopes, retired directory entries) start empty in a
// copy: they would hand out storage the original may still use.
// Creating a child and privatizing one snapshot therefore allocates
// nothing in steady state (TestModelChildZeroAlloc, in make alloc-gate).
//
// Clone, the whole-model deep copy, is the test oracle the
// copy-on-write path is checked against (model_clone_test.go).

import (
	"sync/atomic"

	"wbsim/internal/cache"
	"wbsim/internal/mem"
	"wbsim/internal/network"
)

// pcuSnap is one core's snapshot: its private cache unit and model
// core, their cached fingerprint sections, and the storage cloneFrom
// reuses when the snapshot is recycled.
type pcuSnap struct {
	refs atomic.Int32 // models holding this snapshot
	pcu  *PCU
	core modelCore

	// fp caches the core record then the PCU record, split at fpCore;
	// valid while fpOK.
	fp     []byte
	fpCore int
	fpOK   bool
}

// bankSnap is one bank's snapshot: the bank, the memory its lines are
// backed by, its cached fingerprint section, and the storage cloneFrom
// reuses when the snapshot is recycled.
type bankSnap struct {
	refs   atomic.Int32 // models holding this snapshot
	bank   *Bank
	memory *mem.Memory // the modeled lines homed at this bank

	fp   []byte // cached fingerprint section; valid while fpOK
	fpOK bool

	dlArena []dirLine // backs the directory lines
}

// flight is one in-flight message, held by every model that has it in
// its network multiset.
type flight struct {
	refs atomic.Int32 // models holding this flight
	env  network.Message
	msg  Msg // env's payload
}

// ModelPool is one worker's free lists of retired models and component
// snapshots. It is not safe for concurrent use; the snapshots' reference
// counts are, so models drawn from different pools may share snapshots.
// A nil pool allocates fresh objects and recycles nothing.
type ModelPool struct {
	models  []*Model
	pcus    []*pcuSnap
	banks   []*bankSnap
	flights []*flight
	bufs    scratchBufs // shared by the pool's models (Model.scratch)
}

// Child returns a copy of m that shares every component snapshot with
// it. Either may then transition without moving the other; the child
// privatizes from p's free lists.
func (p *ModelPool) Child(m *Model) *Model {
	var c *Model
	if p != nil {
		c = take(&p.models)
	} else {
		c = new(Model)
	}
	cloneHeader(c, m)
	c.pool = p
	return c
}

// cloneHeader overwrites c's header with m's: every snapshot is shared
// (and gains a reference), the network slice and the shadow are copied.
func cloneHeader(c, m *Model) {
	c.cfg = m.cfg
	c.params = m.params // immutable after NewModel
	c.lines = m.lines   // immutable after NewModel
	c.sym = m.sym       // immutable once computed
	for _, s := range m.ps {
		s.refs.Add(1)
	}
	for _, s := range m.bs {
		s.refs.Add(1)
	}
	for _, f := range m.net {
		f.refs.Add(1)
	}
	c.ps = append(c.ps[:0], m.ps...)
	c.bs = append(c.bs[:0], m.bs...)
	c.net = append(c.net[:0], m.net...)
	c.latest = append(c.latest[:0], m.latest...)
	c.violation = m.violation
}

// Adopt makes p the pool m privatizes from and shares scratch with. A
// model is used by one worker at a time, and a worker adopts a model
// made by another before using it.
func (p *ModelPool) Adopt(m *Model) { m.pool = p }

// Release retires m: it drops m's snapshot references, puts every
// snapshot that loses its last one on p's free lists, and keeps m itself
// for a later Child. Nothing may use m afterwards.
func (p *ModelPool) Release(m *Model) {
	for _, s := range m.ps {
		p.dropPCU(s)
	}
	for _, s := range m.bs {
		p.dropBank(s)
	}
	for _, f := range m.net {
		p.dropFlight(f)
	}
	clear(m.ps)
	clear(m.bs)
	clear(m.net)
	m.net = m.net[:0]
	m.pool = nil
	if p != nil {
		p.models = append(p.models, m)
	}
}

func (p *ModelPool) dropPCU(s *pcuSnap) {
	if s.refs.Add(-1) == 0 && p != nil {
		p.pcus = append(p.pcus, s)
	}
}

func (p *ModelPool) dropBank(s *bankSnap) {
	if s.refs.Add(-1) == 0 && p != nil {
		p.banks = append(p.banks, s)
	}
}

func (p *ModelPool) dropFlight(f *flight) {
	if f.refs.Add(-1) == 0 && p != nil {
		p.flights = append(p.flights, f)
	}
}

// newPCU, newBank and newFlight hand out a retired object off p's free
// list, or a new one.
func (p *ModelPool) newPCU() *pcuSnap {
	if p == nil {
		return new(pcuSnap)
	}
	return take(&p.pcus)
}

func (p *ModelPool) newBank() *bankSnap {
	if p == nil {
		return new(bankSnap)
	}
	return take(&p.banks)
}

func (p *ModelPool) newFlight() *flight {
	if p == nil {
		return new(flight)
	}
	return take(&p.flights)
}

// bindPCU installs s as core i's snapshot and points its send port and
// model core at m.
func (m *Model) bindPCU(i int, s *pcuSnap) {
	s.pcu.port = modelPort{m: m}
	s.core.m = m
	m.ps[i] = s
}

// bindBank installs s as bank b's snapshot and points its send port at m.
func (m *Model) bindBank(b int, s *bankSnap) {
	s.bank.port = modelPort{m: m}
	m.bs[b] = s
}

// privatizePCU makes core i's snapshot m's own, ready to be mutated:
// copied if other models hold it, otherwise reused in place. Either way
// its cached fingerprint sections are stale from here on.
func (m *Model) privatizePCU(i int) {
	s := m.ps[i]
	if s.refs.Load() != 1 {
		n := m.pool.newPCU()
		n.cloneFrom(s, m.lines)
		n.refs.Store(1)
		m.pool.dropPCU(s)
		s = n
	}
	s.fpOK = false
	m.bindPCU(i, s)
}

// privatizeBank is privatizePCU for bank b.
func (m *Model) privatizeBank(b int) {
	s := m.bs[b]
	if s.refs.Load() != 1 {
		n := m.pool.newBank()
		n.cloneFrom(s, m.lines)
		n.refs.Store(1)
		m.pool.dropBank(s)
		s = n
	}
	s.fpOK = false
	m.bindBank(b, s)
}

// privatize privatizes the one snapshot choice ch can touch.
func (m *Model) privatize(ch choice) {
	switch ch.kind {
	case chDeliver:
		if dst := int(m.net[ch.idx].env.Dst); dst < m.cfg.Cores {
			m.privatizePCU(dst)
		} else {
			m.privatizeBank(dst - m.cfg.Cores)
		}
	case chFireBank:
		m.privatizeBank(int(ch.comp))
	case chFireCore, chLoad, chStore, chLock, chLift:
		m.privatizePCU(int(ch.comp))
	}
}

// Clone returns an independent deep copy of the model: every snapshot
// and every in-flight message is copied, so nothing is shared with m.
// Exploration never needs it — it is the oracle the copy-on-write
// children are checked against.
func (m *Model) Clone() *Model {
	c := &Model{}
	cloneHeader(c, m)
	c.pool = nil // privatizes onto the heap
	for i := range c.ps {
		c.privatizePCU(i)
	}
	for b := range c.bs {
		c.privatizeBank(b)
	}
	for i, f := range c.net {
		n := &flight{env: f.env, msg: f.msg}
		n.env.Payload = &n.msg
		n.refs.Store(1)
		f.refs.Add(-1)
		c.net[i] = n
	}
	return c
}

// arenaSlot hands out the next slot of a snapshot's arena.
// Extending into existing capacity hands back an earlier generation's
// slot — garbage, but its slice fields still own reusable backing
// arrays, which the callers harvest before overwriting. When an append
// reallocates, pointers handed out earlier keep the old backing array
// alive; only the enlarged array is reused next generation.
func arenaSlot[T any](arena *[]T) *T {
	a := *arena
	if n := len(a); n < cap(a) {
		a = a[:n+1]
	} else {
		var zero T
		a = append(a, zero)
	}
	*arena = a
	return &a[len(a)-1]
}

// take pops a retired object off a free list, or allocates one when
// the list is empty.
func take[T any](free *[]*T) *T {
	if n := len(*free); n > 0 {
		s := (*free)[n-1]
		*free = (*free)[:n-1]
		return s
	}
	return new(T)
}

// cloneFrom overwrites s — a free snapshot nothing references — with a
// deep copy of o. The copy is bound to no model yet (bindPCU).
func (s *pcuSnap) cloneFrom(o *pcuSnap, lines []mem.Line) {
	c, oc := &s.core, &o.core
	c.m = nil
	c.id = oc.id
	c.prog = oc.prog // immutable after NewModel
	c.pc = oc.pc
	c.waitLoad = oc.waitLoad
	c.locked = append(c.locked[:0], oc.locked...)
	c.seen = append(c.seen[:0], oc.seen...)
	c.locksUsed = oc.locksUsed
	c.observed = append(c.observed[:0], oc.observed...)
	s.fpOK = false
	if s.pcu == nil {
		s.pcu = &PCU{l1: new(cache.Array), l2: new(cache.Array), mshrs: new(cache.MSHRFile[pcuTxn])}
	}
	s.clonePCUInto(s.pcu, o.pcu, lines)
}

// copyPCUTxn overwrites t with a copy of o, reusing the storage of t's
// waiter slices.
func copyPCUTxn(t, o *pcuTxn) {
	loads, atomics := t.loads[:0], t.atomics[:0]
	*t = *o
	t.loads = append(loads, o.loads...)
	t.atomics = append(atomics, o.atomics...)
}

// clonePCUInto deep-copies one private cache unit into np, hooking it
// to the snapshot's model core. Its port is left for bindPCU.
func (s *pcuSnap) clonePCUInto(np *PCU, p *PCU, lines []mem.Line) {
	p.l1.CloneInto(np.l1)
	p.l2.CloneInto(np.l2)
	p.mshrs.CloneInto(np.mshrs, copyPCUTxn)
	np.id = p.id
	np.port = nil
	np.params = p.params // immutable after NewModel
	np.home = p.home     // pure function of the config
	np.data = &s.core
	np.order = &s.core
	np.mode = p.mode
	np.machine = p.machine // immutable composed table
	np.cov = nil           // Fire skips counting on nil; clone coverage is never read
	np.trace = p.trace
	np.conf = nil // conformance recorders watch one component; never cloned
	np.wbBuf = append(np.wbBuf[:0], p.wbBuf...)
	np.envs = nil         // the model's port makes no envelopes
	np.boundLoads = nil   // dead between events
	np.boundAtomics = nil // dead between events
	if p.leases != nil {
		if np.leases == nil {
			np.leases = make(map[mem.Line]simCycle, len(p.leases))
		}
		// Walk the model's line universe instead of iterating the maps:
		// lookups over the handful of modeled lines are cheaper than map
		// iteration, and the stale-key deletes replace a clear().
		lsCopied := 0
		for _, l := range lines {
			if exp, ok := p.leases[l]; ok {
				np.leases[l] = exp
				lsCopied++
			} else {
				delete(np.leases, l)
			}
		}
		if lsCopied != len(p.leases) {
			panic("model: lease table tracks a line outside the model universe")
		}
	}
	np.Stats = p.Stats
	np.blockedWrites = p.blockedWrites
	np.now = p.now
	np.activeAt = p.activeAt
	p.events.CloneInto(&np.events)
}

// cloneFrom overwrites s — a free snapshot nothing references — with a
// deep copy of o. The copy is bound to no model yet (bindBank).
func (s *bankSnap) cloneFrom(o *bankSnap, lines []mem.Line) {
	if s.memory == nil {
		s.memory = mem.NewMemory()
	}
	o.memory.CloneInto(s.memory)
	s.fpOK = false
	s.dlArena = s.dlArena[:0]
	if s.bank == nil {
		s.bank = &Bank{array: new(cache.Array)}
	}
	s.cloneBankInto(s.bank, o.bank, lines)
}

// cloneDirLine deep-copies a directory entry, its transaction included,
// into the arena, rewriting its frame pointer into the cloned bank's
// array.
func (s *bankSnap) cloneDirLine(dl *dirLine, array *cache.Array) *dirLine {
	n := arenaSlot(&s.dlArena)
	// Harvest the slot's previous-generation slice capacity before the
	// overwrite (nil for a fresh slot).
	sharers, pending := n.sharers[:0], n.pending[:0]
	ackFrom, delayedFrom := n.txn.ackFrom[:0], n.txn.delayedFrom[:0]
	*n = *dl
	n.frame = array.FrameOf(dl.frame)
	n.sharers = append(sharers, dl.sharers...)
	n.pending = append(pending, dl.pending...)
	n.txn.ackFrom = append(ackFrom, dl.txn.ackFrom...)
	n.txn.delayedFrom = append(delayedFrom, dl.txn.delayedFrom...)
	return n
}

// cloneBankInto deep-copies one LLC bank into nb. Its port is left for
// bindBank.
func (s *bankSnap) cloneBankInto(nb *Bank, b *Bank, lines []mem.Line) {
	b.array.CloneInto(nb.array)
	nb.id = b.id
	nb.port = nil
	nb.params = b.params // immutable after NewModel
	nb.memory = s.memory
	if nb.lines == nil {
		nb.lines = make(map[mem.Line]*dirLine, len(b.lines))
	}
	nb.flavor = b.flavor
	nb.machine = b.machine // immutable composed table
	nb.cov = nil           // Fire skips counting on nil; clone coverage is never read
	nb.trace = b.trace
	nb.conf = nil // conformance recorders watch one component; never cloned
	nb.Stats = b.Stats
	nb.now = b.now
	nb.fired = Msg{}          // dead between events
	nb.replay = nb.replay[:0] // dead between events
	clear(nb.spare)           // may hold this snapshot's arena slots,
	nb.spare = nb.spare[:0]   // which the copy below reuses
	nb.envs = nil             // the model's port makes no envelopes
	// Universe walk instead of map iteration, as for the PCU's leases.
	copied := 0
	for _, l := range lines {
		if dl := b.lines[l]; dl != nil {
			nb.lines[l] = s.cloneDirLine(dl, nb.array)
			copied++
		} else {
			delete(nb.lines, l)
		}
	}
	if copied != len(b.lines) {
		panic("model: bank directory tracks a line outside the model universe")
	}
	nb.evbuf = nb.evbuf[:0]
	for _, dl := range b.evbuf {
		nb.evbuf = append(nb.evbuf, s.cloneDirLine(dl, nb.array))
	}
	nb.earlyDelayed = append(nb.earlyDelayed[:0], b.earlyDelayed...)
	b.events.CloneInto(&nb.events)
}

// deliverToBank hands flight f to bank b (already privatized). The bank
// copies what it queues, so it reads the shared flight.
func (m *Model) deliverToBank(b int, f *flight) {
	m.bs[b].bank.Receive(0, &f.env)
}
