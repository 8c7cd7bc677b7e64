package coherence

// Deep cloning of Model states. Exploration used to be replay-only:
// branching k ways from a depth-d state cost k full replays (k·d
// transition applies plus k model constructions). Clone copies the
// entire mutable state in one pass, so branching costs k clones plus k
// applies — the enabling move for the checker's throughput rewrite.
//
// The clone surface is every pointer-bearing structure a transition can
// mutate: the component maps and arrays, the directory lines (aliased
// from both the line/evbuf maps and pending bankFetchDone events), the
// in-flight protocol messages (aliased from the network multiset,
// directory pending queues, and bankRequeue events), MSHR payloads, and
// the scheduled event arguments that carry owner back-pointers. Shared
// immutables — the composed table machines, the per-core programs, the
// line-id slice, the home function — are shared, not copied.
//
// Two entry points share one implementation: Clone allocates a fresh
// copy; CloneInto overwrites a retired model of the same configuration,
// reusing its maps, slices, arenas, and event-argument objects, so the
// checker's steady-state expansion allocates almost nothing. Pooling is
// sound because a model owns all of its mutable state — every pointer
// the clone surface touches is deep-copied, never shared across models
// (the by-value Msg fields inside bankSend/bankRetry/pcuSend are copied
// with their structs).

import (
	"fmt"

	"wbsim/internal/cache"
	"wbsim/internal/mem"
	"wbsim/internal/network"
)

// cloneCtx memoizes pointer identity during one Clone so aliased
// structures stay aliased in the copy. The memo tables are linear-scan
// slices, not maps: a state holds a handful of in-flight messages and
// directory lines, and Clone runs once per explored transition, so
// avoiding per-clone map allocations is worth more than O(1) lookup.
// In reuse mode the free* lists hold the destination's previous-
// generation event arguments, harvested before its queues are
// overwritten; takeArg hands them back out instead of allocating.
type cloneCtx struct {
	dst   *Model
	reuse bool
	msgs  []msgPair
	dls   []dlPair

	freeBankSend  []*bankSend
	freeBankRetry []*bankRetry
	freeFetchDone []*bankFetchDone
	freeRequeue   []*bankRequeue
	freePCUSend   []*pcuSend
	freeBankLease []*bankLeaseExpire
	freePCULease  []*pcuLeaseExpire
}

type msgPair struct{ old, new *Msg }
type dlPair struct{ old, new *dirLine }

// Clone returns an independent deep copy of the model: applying choices
// to the copy never affects the original, and both serialize to the
// same fingerprint until one of them transitions.
func (m *Model) Clone() *Model {
	return m.cloneInto(&Model{}, false)
}

// CloneInto overwrites dst — a retired model of the same configuration,
// previously produced by Clone or CloneInto — with a deep copy of m and
// returns dst. Nothing else may still reference dst or any object
// reachable from it. Steady-state cost is the copy alone: dst's maps,
// slices, arenas, and event arguments are all reused in place.
func (m *Model) CloneInto(dst *Model) *Model {
	if dst == m {
		panic("model: CloneInto onto itself")
	}
	if len(dst.banks) != len(m.banks) || len(dst.cores) != len(m.cores) {
		panic("model: CloneInto destination has a different geometry")
	}
	return m.cloneInto(dst, true)
}

func (m *Model) cloneInto(dst *Model, reuse bool) *Model {
	dst.cfg = m.cfg
	dst.params = m.params
	if dst.memory == nil {
		dst.memory = mem.NewMemory()
	}
	m.memory.CloneInto(dst.memory)
	dst.lines = m.lines // immutable after NewModel
	dst.latest = append(dst.latest[:0], m.latest...)
	dst.violation = m.violation
	dst.sym = m.sym // immutable once computed
	dst.msgArena = dst.msgArena[:0]
	dst.dlArena = dst.dlArena[:0]
	dst.dtxnArena = dst.dtxnArena[:0]
	dst.ptxnArena = dst.ptxnArena[:0]
	dst.netArena = dst.netArena[:0]

	cc := &cloneCtx{dst: dst, reuse: reuse}
	port := modelPort{m: dst}
	if !reuse {
		dst.banks = make([]*Bank, len(m.banks))
		for i := range dst.banks {
			dst.banks[i] = new(Bank)
		}
		dst.cores = make([]*modelCore, len(m.cores))
		dst.pcus = make([]*PCU, len(m.pcus))
		for i := range dst.cores {
			dst.cores[i] = new(modelCore)
			dst.pcus[i] = new(PCU)
		}
	}
	for i, b := range m.banks {
		cc.cloneBankInto(dst.banks[i], b, port)
	}
	for i, c := range m.cores {
		nc := dst.cores[i]
		nc.m = dst
		nc.id = c.id
		nc.prog = c.prog // immutable after NewModel
		nc.pc = c.pc
		nc.waitLoad = c.waitLoad
		nc.locked = append(nc.locked[:0], c.locked...)
		nc.seen = append(nc.seen[:0], c.seen...)
		nc.locksUsed = c.locksUsed
		nc.observed = append(nc.observed[:0], c.observed...)
		cc.clonePCUInto(dst.pcus[i], m.pcus[i], port, nc)
	}
	dst.net = dst.net[:0]
	for _, nm := range m.net {
		slot := cc.newNetMsg()
		nm.CloneInto(slot, cc.cloneMsg(nm.Payload.(*Msg)))
		dst.net = append(dst.net, slot)
	}
	return dst
}

// Arena allocators. Extending into existing capacity hands back the
// previous generation's slot — garbage, but its slice fields still own
// reusable backing arrays, which the callers harvest before
// overwriting. When an append reallocates mid-clone, pointers handed
// out earlier keep the old backing array alive; only the enlarged array
// is reused next generation.

func (cc *cloneCtx) newMsg() *Msg {
	if !cc.reuse {
		return new(Msg)
	}
	d := cc.dst
	if n := len(d.msgArena); n < cap(d.msgArena) {
		d.msgArena = d.msgArena[:n+1]
	} else {
		d.msgArena = append(d.msgArena, Msg{})
	}
	return &d.msgArena[len(d.msgArena)-1]
}

func (cc *cloneCtx) newDirLine() *dirLine {
	if !cc.reuse {
		return new(dirLine)
	}
	d := cc.dst
	if n := len(d.dlArena); n < cap(d.dlArena) {
		d.dlArena = d.dlArena[:n+1]
	} else {
		d.dlArena = append(d.dlArena, dirLine{})
	}
	return &d.dlArena[len(d.dlArena)-1]
}

func (cc *cloneCtx) newDirTxn() *dirTxn {
	if !cc.reuse {
		return new(dirTxn)
	}
	d := cc.dst
	if n := len(d.dtxnArena); n < cap(d.dtxnArena) {
		d.dtxnArena = d.dtxnArena[:n+1]
	} else {
		d.dtxnArena = append(d.dtxnArena, dirTxn{})
	}
	return &d.dtxnArena[len(d.dtxnArena)-1]
}

func (cc *cloneCtx) newPCUTxn() *pcuTxn {
	if !cc.reuse {
		return new(pcuTxn)
	}
	d := cc.dst
	if n := len(d.ptxnArena); n < cap(d.ptxnArena) {
		d.ptxnArena = d.ptxnArena[:n+1]
	} else {
		d.ptxnArena = append(d.ptxnArena, pcuTxn{})
	}
	return &d.ptxnArena[len(d.ptxnArena)-1]
}

func (cc *cloneCtx) newNetMsg() *network.Message {
	if !cc.reuse {
		return new(network.Message)
	}
	d := cc.dst
	if n := len(d.netArena); n < cap(d.netArena) {
		d.netArena = d.netArena[:n+1]
	} else {
		d.netArena = append(d.netArena, network.Message{})
	}
	return &d.netArena[len(d.netArena)-1]
}

// harvestArg collects one previous-generation event argument for reuse.
func (cc *cloneCtx) harvestArg(arg any) {
	switch a := arg.(type) {
	case *bankSend:
		cc.freeBankSend = append(cc.freeBankSend, a)
	case *bankRetry:
		cc.freeBankRetry = append(cc.freeBankRetry, a)
	case *bankFetchDone:
		cc.freeFetchDone = append(cc.freeFetchDone, a)
	case *bankRequeue:
		cc.freeRequeue = append(cc.freeRequeue, a)
	case *pcuSend:
		cc.freePCUSend = append(cc.freePCUSend, a)
	case *bankLeaseExpire:
		cc.freeBankLease = append(cc.freeBankLease, a)
	case *pcuLeaseExpire:
		cc.freePCULease = append(cc.freePCULease, a)
	}
}

func (cc *cloneCtx) takeBankSend() *bankSend {
	if n := len(cc.freeBankSend); n > 0 {
		s := cc.freeBankSend[n-1]
		cc.freeBankSend = cc.freeBankSend[:n-1]
		return s
	}
	return new(bankSend)
}

func (cc *cloneCtx) takeBankRetry() *bankRetry {
	if n := len(cc.freeBankRetry); n > 0 {
		s := cc.freeBankRetry[n-1]
		cc.freeBankRetry = cc.freeBankRetry[:n-1]
		return s
	}
	return new(bankRetry)
}

func (cc *cloneCtx) takeFetchDone() *bankFetchDone {
	if n := len(cc.freeFetchDone); n > 0 {
		s := cc.freeFetchDone[n-1]
		cc.freeFetchDone = cc.freeFetchDone[:n-1]
		return s
	}
	return new(bankFetchDone)
}

func (cc *cloneCtx) takeRequeue() *bankRequeue {
	if n := len(cc.freeRequeue); n > 0 {
		s := cc.freeRequeue[n-1]
		cc.freeRequeue = cc.freeRequeue[:n-1]
		return s
	}
	return new(bankRequeue)
}

func (cc *cloneCtx) takePCUSend() *pcuSend {
	if n := len(cc.freePCUSend); n > 0 {
		s := cc.freePCUSend[n-1]
		cc.freePCUSend = cc.freePCUSend[:n-1]
		return s
	}
	return new(pcuSend)
}

func (cc *cloneCtx) takeBankLease() *bankLeaseExpire {
	if n := len(cc.freeBankLease); n > 0 {
		s := cc.freeBankLease[n-1]
		cc.freeBankLease = cc.freeBankLease[:n-1]
		return s
	}
	return new(bankLeaseExpire)
}

func (cc *cloneCtx) takePCULease() *pcuLeaseExpire {
	if n := len(cc.freePCULease); n > 0 {
		s := cc.freePCULease[n-1]
		cc.freePCULease = cc.freePCULease[:n-1]
		return s
	}
	return new(pcuLeaseExpire)
}

// cloneMsg deep-copies a protocol message once; later references to the
// same message resolve to the same copy.
func (cc *cloneCtx) cloneMsg(pm *Msg) *Msg {
	if pm == nil {
		return nil
	}
	for _, p := range cc.msgs {
		if p.old == pm {
			return p.new
		}
	}
	n := cc.newMsg()
	*n = *pm
	cc.msgs = append(cc.msgs, msgPair{pm, n})
	return n
}

// cloneDirLine deep-copies a directory entry once, rewriting its frame
// pointer into the cloned bank's array.
func (cc *cloneCtx) cloneDirLine(dl *dirLine, remap func(*cache.Entry) *cache.Entry) *dirLine {
	if dl == nil {
		return nil
	}
	for _, p := range cc.dls {
		if p.old == dl {
			return p.new
		}
	}
	n := cc.newDirLine()
	cc.dls = append(cc.dls, dlPair{dl, n})
	// Harvest the slot's previous-generation slice capacity before the
	// overwrite (nil for a fresh allocation).
	sharers := n.sharers[:0]
	pending := n.pending[:0]
	*n = *dl
	n.frame = remap(dl.frame)
	n.sharers = append(sharers, dl.sharers...)
	if dl.txn != nil {
		t := cc.newDirTxn()
		ackFrom := t.ackFrom[:0]
		delayedFrom := t.delayedFrom[:0]
		*t = *dl.txn
		t.ackFrom = append(ackFrom, dl.txn.ackFrom...)
		t.delayedFrom = append(delayedFrom, dl.txn.delayedFrom...)
		n.txn = t
	}
	n.pending = pending
	for _, pm := range dl.pending {
		n.pending = append(n.pending, cc.cloneMsg(pm))
	}
	return n
}

// cloneBankInto deep-copies one LLC bank into nb, rewriting its deferred
// event arguments to point at the copy.
func (cc *cloneCtx) cloneBankInto(nb *Bank, b *Bank, port modelPort) {
	var remap func(*cache.Entry) *cache.Entry
	if nb.array == nil {
		nb.array, remap = b.array.Clone()
	} else {
		remap = b.array.CloneInto(nb.array)
	}
	nb.id = b.id
	nb.port = port
	nb.params = &cc.dst.params
	nb.memory = cc.dst.memory
	if nb.lines == nil {
		nb.lines = make(map[mem.Line]*dirLine, len(b.lines))
		nb.evbuf = make(map[mem.Line]*dirLine, len(b.evbuf))
		nb.earlyDelayed = make(map[mem.Line]int, len(b.earlyDelayed))
	}
	nb.flavor = b.flavor
	nb.machine = b.machine // immutable composed table
	nb.cov = nil           // Fire skips counting on nil; clone coverage is never read
	nb.trace = b.trace
	nb.conf = nil // conformance recorders watch one component; never cloned
	nb.Stats = b.Stats
	nb.now = b.now
	// Walk the model's line universe instead of iterating the maps:
	// lookups over the handful of modeled lines are cheaper than map
	// iteration, and the stale-key deletes replace a clear().
	copied, evCopied := 0, 0
	for _, l := range cc.dst.lines {
		if dl := b.lines[l]; dl != nil {
			nb.lines[l] = cc.cloneDirLine(dl, remap)
			copied++
		} else {
			delete(nb.lines, l)
		}
		if dl := b.evbuf[l]; dl != nil {
			nb.evbuf[l] = cc.cloneDirLine(dl, remap)
			evCopied++
		} else {
			delete(nb.evbuf, l)
		}
		if n := b.earlyDelayed[l]; n != 0 {
			nb.earlyDelayed[l] = n
		} else {
			delete(nb.earlyDelayed, l)
		}
	}
	if copied != len(b.lines) || evCopied != len(b.evbuf) {
		panic("model: bank directory tracks a line outside the model universe")
	}
	if cc.reuse {
		nb.events.ForEachArg(cc.harvestArg)
	}
	b.events.CloneInto(&nb.events, func(arg any) any {
		switch a := arg.(type) {
		case *bankSend:
			n := cc.takeBankSend()
			*n = bankSend{b: nb, dst: a.dst, m: a.m}
			return n
		case *bankRetry:
			n := cc.takeBankRetry()
			*n = bankRetry{b: nb, m: a.m}
			return n
		case *bankFetchDone:
			n := cc.takeFetchDone()
			*n = bankFetchDone{b: nb, dl: cc.cloneDirLine(a.dl, remap)}
			return n
		case *bankRequeue:
			n := cc.takeRequeue()
			*n = bankRequeue{b: nb, m: cc.cloneMsg(a.m)}
			return n
		case *bankLeaseExpire:
			n := cc.takeBankLease()
			*n = bankLeaseExpire{b: nb, line: a.line}
			return n
		}
		panic(fmt.Sprintf("model: unclonable pending bank event %T", arg))
	})
}

// clonePCUTxn deep-copies an MSHR transaction payload.
func (cc *cloneCtx) clonePCUTxn(pay any) any {
	if pay == nil {
		return nil
	}
	src := pay.(*pcuTxn)
	t := cc.newPCUTxn()
	loads := t.loads[:0]
	atomics := t.atomics[:0]
	*t = *src
	t.loads = append(loads, src.loads...)
	t.atomics = append(atomics, src.atomics...)
	return t
}

// clonePCUInto deep-copies one private cache unit into np, rebinding its
// hooks to the cloned model core.
func (cc *cloneCtx) clonePCUInto(np *PCU, p *PCU, port modelPort, hooks CoreHooks) {
	if np.l1 == nil {
		np.l1, _ = p.l1.Clone()
		np.l2, _ = p.l2.Clone()
	} else {
		p.l1.CloneInto(np.l1)
		p.l2.CloneInto(np.l2)
	}
	if np.mshrs == nil {
		np.mshrs, _ = p.mshrs.Clone(cc.clonePCUTxn)
	} else {
		p.mshrs.CloneInto(np.mshrs, cc.clonePCUTxn, cc.dst.lines)
	}
	np.id = p.id
	np.port = port
	np.params = &cc.dst.params
	np.home = p.home // pure function of the (copied) config
	np.data = hooks
	np.order = hooks
	np.mode = p.mode
	np.machine = p.machine // immutable composed table
	np.cov = nil           // Fire skips counting on nil; clone coverage is never read
	np.trace = p.trace
	np.conf = nil // conformance recorders watch one component; never cloned
	if np.wbBuf == nil {
		np.wbBuf = make(map[mem.Line]*wbEntry, len(p.wbBuf))
	}
	// Universe walk instead of map iteration, as in cloneBankInto.
	wbCopied := 0
	for _, l := range cc.dst.lines {
		wb := p.wbBuf[l]
		if wb == nil {
			delete(np.wbBuf, l)
			continue
		}
		wbCopied++
		if old := np.wbBuf[l]; old != nil {
			*old = *wb
		} else {
			cp := *wb
			np.wbBuf[l] = &cp
		}
	}
	if wbCopied != len(p.wbBuf) {
		panic("model: write-back buffer tracks a line outside the model universe")
	}
	if p.leases != nil {
		if np.leases == nil {
			np.leases = make(map[mem.Line]simCycle, len(p.leases))
		}
		lsCopied := 0
		for _, l := range cc.dst.lines {
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
	if cc.reuse {
		np.events.ForEachArg(cc.harvestArg)
	}
	p.events.CloneInto(&np.events, func(arg any) any {
		switch a := arg.(type) {
		case *pcuSend:
			n := cc.takePCUSend()
			*n = pcuSend{p: np, dst: a.dst, m: a.m}
			return n
		case *pcuLeaseExpire:
			n := cc.takePCULease()
			*n = pcuLeaseExpire{p: np, line: a.line, expiry: a.expiry}
			return n
		}
		panic(fmt.Sprintf("model: unclonable pending PCU event %T", arg))
	})
}
