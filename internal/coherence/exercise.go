package coherence

// The directed protocol stimulator. The chaos campaign's
// constrained-random litmus matrix reliably reaches the common
// transitions, but several rows document narrow races its programs
// cannot aim at: stale Puts crossing directory evictions, WritersBlock
// entered through an eviction invalidation, and the SoS-bypass RdWr
// states of the core machine. ExerciseProtocol replays each such race
// as a deterministic scripted scenario against a real Bank or PCU — a
// scripted peer sends exactly the message sequence the row's audit
// reason describes — and returns the transition coverage produced.
// cmd/litmus -chaos merges this into the campaign's coverage report:
// the usual directed-plus-random split of hardware verification.
//
// Every scenario runs on a fresh bench with fixed latencies, no jitter
// and no randomness, so the merged coverage is identical on every run;
// the scenarios' health is pinned by TestExerciseProtocol.

import (
	"wbsim/internal/cache"
	"wbsim/internal/mem"
	"wbsim/internal/network"
	"wbsim/internal/sim"
)

// exPeer is a scripted protocol endpoint: it records everything it is
// delivered and sends hand-built messages on behalf of the scenario.
type exPeer struct {
	id   network.Endpoint
	bch  *exBench
	got  []*Msg
	envs envelopes
}

// Receive keeps the delivered body. It never releases the envelope, so
// the body stays as delivered.
func (d *exPeer) Receive(now sim.Cycle, nm *network.Message) {
	m, _ := msgOf(nm)
	d.got = append(d.got, m)
}

func (d *exPeer) send(dst network.Endpoint, m *Msg) {
	d.envs.send(d.bch.mesh, d.bch.now, d.id, dst, m, d.bch.params.DataFlits, d.bch.params.CtrlFlits)
}

// last returns the most recent delivery of the given type for the given
// line, or nil.
func (d *exPeer) last(t MsgType, line mem.Line) *Msg {
	for i := len(d.got) - 1; i >= 0; i-- {
		if d.got[i].Type == t && d.got[i].Line == line {
			return d.got[i]
		}
	}
	return nil
}

// exBench is one scenario's test bench: a mesh with scripted peers plus
// one real Bank or one real PCU. Every scenario gets a fresh bench so
// no transient state (stuck frames, stale deliveries) leaks between
// scenarios.
type exBench struct {
	mesh   *network.Mesh
	clock  sim.Clock
	now    sim.Cycle
	params Params
	bank   *Bank
	pcu    *PCU
	peers  []*exPeer
}

// run advances the bench n cycles.
func (x *exBench) run(n int) {
	for i := 0; i < n; i++ {
		x.now = x.clock.Advance()
		x.mesh.Tick(x.now)
		if x.bank != nil {
			x.bank.Tick(x.now)
		}
		if x.pcu != nil {
			x.pcu.Tick(x.now)
		}
	}
}

// await runs until peer p has been delivered a message of type t for
// line (or panics: a missing reply means the stimulator and the
// protocol have diverged, which must be loud).
func (x *exBench) await(p int, t MsgType, line mem.Line) *Msg {
	for i := 0; i < 40; i++ {
		if m := x.peers[p].last(t, line); m != nil {
			return m
		}
		x.run(50)
	}
	panicf("exercise: peer %d never received %v for %v", p, t, line)
	return nil
}

// awaitDir runs until the bank's entry for line is in dispatch state st
// (or panics, as await does).
func (x *exBench) awaitDir(st dirState, line mem.Line) {
	for i := 0; i < 2000; i++ {
		if dirStateOf(x.bank.find(line)) == st {
			return
		}
		x.run(1)
	}
	panicf("exercise: directory entry for %v never reached %v", line, st)
}

// exStep is the settle time between scripted sends: longer than any
// single component latency plus a mesh traversal.
const exStep = 250

// ---------------------------------------------------------------------
// Directory scenarios. Scripted peers play the cores.
// ---------------------------------------------------------------------

// newDirBench builds a bench with one real directory bank (endpoint 4)
// and four scripted cores (endpoints 0..3). The LLC is direct-mapped
// and tiny so scenarios can force directory evictions.
func newDirBench(mode Mode) *exBench {
	params := DefaultParams()
	params.LLCLines = 4
	params.LLCWays = 1
	params.EvictionBuf = 4
	params.MemLatency = 40
	x := &exBench{params: params}
	x.mesh = network.NewMesh(network.DefaultConfig(2), nil)
	routers := x.mesh.Routers()
	for i := 0; i < 4; i++ {
		p := &exPeer{id: network.Endpoint(i), bch: x}
		x.mesh.Attach(p.id, i%routers, p)
		x.peers = append(x.peers, p)
	}
	x.bank = NewBank(network.Endpoint(4), x.mesh, &x.params, mem.NewMemory(), mode)
	x.mesh.Attach(x.bank.id, 4%routers, x.bank)
	bankEP := x.bank.id
	x.bank.EnableConformance(NewConfChecker(func(ep network.Endpoint) bool { return ep == bankEP }))
	return x
}

func (x *exBench) bankEP() network.Endpoint { return x.bank.id }

// acquireE walks peer c through a full read transaction on a fresh
// line, leaving the directory Exclusive with c as owner, and returns
// the granted data.
func (x *exBench) acquireE(c int, line mem.Line) mem.LineData {
	x.peers[c].send(x.bankEP(), &Msg{Type: MsgGetS, Line: line, Requester: x.peers[c].id})
	g := x.await(c, MsgData, line)
	x.peers[c].send(x.bankEP(), &Msg{Type: MsgUnblock, Line: line, Requester: x.peers[c].id})
	x.run(exStep)
	return g.Data
}

// shareLine puts line in Shared with peers c1 and c2 on the sharer
// list: c1 acquires exclusively, c2's read forwards to c1, which
// downgrades (Data to c2, OwnerData to the directory).
func (x *exBench) shareLine(c1, c2 int, line mem.Line) {
	data := x.acquireE(c1, line)
	x.peers[c2].send(x.bankEP(), &Msg{Type: MsgGetS, Line: line, Requester: x.peers[c2].id})
	fwd := x.await(c1, MsgFwdGetS, line)
	x.peers[c1].send(fwd.Requester, &Msg{Type: MsgData, Line: line, Requester: fwd.Requester, Data: data, HasData: true})
	x.peers[c1].send(x.bankEP(), &Msg{Type: MsgOwnerData, Line: line, Requester: fwd.Requester, Data: data, HasData: true})
	x.run(exStep)
	x.peers[c2].send(x.bankEP(), &Msg{Type: MsgUnblock, Line: line, Requester: x.peers[c2].id})
	x.run(exStep)
}

// evictLine makes a scripted core request a fresh line that collides
// with line in the bank's direct-mapped LLC, forcing the directory to
// evict line's entry; it returns once the eviction invalidation reached
// peer c.
func (x *exBench) evictLine(c int, line mem.Line) *Msg {
	probe := cache.NewArray(x.params.LLCLines, x.params.LLCWays)
	coll := line + 1
	for probe.SetIndex(coll) != probe.SetIndex(line) {
		coll++
	}
	x.peers[2].send(x.bankEP(), &Msg{Type: MsgGetS, Line: coll, Requester: x.peers[2].id})
	return x.await(c, MsgInv, line)
}

// exerciseDirStalePuts replays the stale-Put races of the PutOwned
// audit rows: a Put arriving after the directory entry moved on. Each
// race gets a fresh bench.
func exerciseDirStalePuts(mode Mode, agg *CoverageAgg) {
	line := mem.Line(0x40)

	// (NoEntry, PutOwned): the entry was never allocated (or already
	// dropped by a directory eviction) when the Put arrives.
	x := newDirBench(mode)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgPutM, Line: line, Requester: x.peers[0].id, HasData: true})
	x.await(0, MsgPutAck, line)
	agg.AddBank(x.bank)

	// (Fetch, PutOwned): a fetch for another core's read is in flight
	// when the Put lands (the entry was evicted and refetched while the
	// Put travelled).
	x = newDirBench(mode)
	x.peers[1].send(x.bankEP(), &Msg{Type: MsgGetS, Line: line, Requester: x.peers[1].id})
	x.run(25) // delivered and allocated, but MemLatency not yet elapsed
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgPutM, Line: line, Requester: x.peers[0].id, HasData: true})
	x.await(0, MsgPutAck, line)
	agg.AddBank(x.bank)

	// (E, PutOwned) accepted, then (I, PutOwned): a duplicate Put for
	// ownership already returned.
	x = newDirBench(mode)
	x.acquireE(0, line)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgPutE, Line: line, Requester: x.peers[0].id})
	x.await(0, MsgPutAck, line)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgPutM, Line: line, Requester: x.peers[0].id, HasData: true})
	x.run(exStep)
	agg.AddBank(x.bank)

	// (S, PutOwned): the owner's Put lost a race with the read
	// downgrade that already rebuilt the entry as Shared. Tardis kills
	// the Shared state; the equivalent race lands in TsShared and is
	// exercised by exerciseTardisDir.
	if mode != ModeTardis {
		x = newDirBench(mode)
		x.shareLine(0, 1, line)
		x.peers[0].send(x.bankEP(), &Msg{Type: MsgPutM, Line: line, Requester: x.peers[0].id, HasData: true})
		x.run(exStep)
		agg.AddBank(x.bank)
	}

	// (BusyEv, PutOwned) then (BusyEv, InvAck): the owner's Put crosses
	// the eviction invalidation on the unordered network.
	x = newDirBench(mode)
	x.acquireE(0, line)
	x.evictLine(0, line)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgPutM, Line: line, Requester: x.peers[0].id, HasData: true})
	x.run(exStep)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgInvAck, Line: line, Requester: x.bankEP()})
	x.run(exStep)
	agg.AddBank(x.bank)
}

// exerciseDirEvictionWB replays WritersBlock entered through an
// eviction invalidation (§3.5.1): the parked entry serves tear-offs,
// queues writes, refuses stale Puts, and completes on the DelayedAck.
func exerciseDirEvictionWB(agg *CoverageAgg) {
	line := mem.Line(0x40)

	// Owned-line eviction nacked: (BusyEv, Nack) parks the entry in
	// WBEv, where reads tear off, writes queue with a hint, a stale Put
	// is refused, and the DelayedAck finishes the eviction.
	x := newDirBench(ModeLockdown)
	data := x.acquireE(0, line)
	x.evictLine(0, line)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgNack, Line: line, Requester: x.peers[0].id, Data: data, HasData: true})
	x.run(exStep)
	x.peers[1].send(x.bankEP(), &Msg{Type: MsgGetS, Line: line, Requester: x.peers[1].id})
	x.await(1, MsgTearoff, line)
	x.peers[1].send(x.bankEP(), &Msg{Type: MsgGetX, Line: line, Requester: x.peers[1].id})
	x.await(1, MsgBlockedHint, line)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgPutM, Line: line, Requester: x.peers[0].id, HasData: true})
	x.await(0, MsgPutAck, line)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgDelayedAck, Line: line, Requester: x.peers[0].id})
	x.run(exStep)
	agg.AddBank(x.bank)

	// Shared-line eviction where both sharers nack: the second Nack
	// lands in WBEv; both DelayedAcks must arrive to finish.
	x = newDirBench(ModeLockdown)
	x.shareLine(0, 1, line)
	x.evictLine(0, line)
	x.await(1, MsgInv, line)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgNack, Line: line, Requester: x.peers[0].id})
	x.run(exStep)
	x.peers[1].send(x.bankEP(), &Msg{Type: MsgNack, Line: line, Requester: x.peers[1].id})
	x.run(exStep)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgDelayedAck, Line: line, Requester: x.peers[0].id})
	x.peers[1].send(x.bankEP(), &Msg{Type: MsgDelayedAck, Line: line, Requester: x.peers[1].id})
	x.run(exStep)
	agg.AddBank(x.bank)

	// Shared-line eviction where one sharer nacks and the other acks:
	// the InvAck lands in WBEv.
	x = newDirBench(ModeLockdown)
	x.shareLine(0, 1, line)
	x.evictLine(0, line)
	x.await(1, MsgInv, line)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgNack, Line: line, Requester: x.peers[0].id})
	x.run(exStep)
	x.peers[1].send(x.bankEP(), &Msg{Type: MsgInvAck, Line: line, Requester: x.bankEP()})
	x.run(exStep)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgDelayedAck, Line: line, Requester: x.peers[0].id})
	x.run(exStep)
	agg.AddBank(x.bank)

	// DelayedAck overtaking its Nack on the unordered network: the
	// early ack buffers in (BusyEv, DelayedAck) and is consumed when
	// the Nack arrives.
	x = newDirBench(ModeLockdown)
	data = x.acquireE(0, line)
	x.evictLine(0, line)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgDelayedAck, Line: line, Requester: x.peers[0].id})
	x.run(exStep)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgNack, Line: line, Requester: x.peers[0].id, Data: data, HasData: true})
	x.run(exStep)
	agg.AddBank(x.bank)
}

// exerciseDirWBWNackPair replays a write invalidation nacked by *both*
// sharers (IRIW-shaped): the second Nack lands in (WBW, Nack).
func exerciseDirWBWNackPair(agg *CoverageAgg) {
	line := mem.Line(0x40)
	x := newDirBench(ModeLockdown)
	x.shareLine(0, 1, line)
	x.peers[2].send(x.bankEP(), &Msg{Type: MsgGetX, Line: line, Requester: x.peers[2].id})
	x.await(0, MsgInv, line)
	x.await(1, MsgInv, line)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgNack, Line: line, Requester: x.peers[0].id})
	x.run(exStep)
	x.peers[1].send(x.bankEP(), &Msg{Type: MsgNack, Line: line, Requester: x.peers[1].id})
	x.run(exStep)
	// A second writer's GetX while the first write is parked: queued
	// behind the WritersBlock with a hint (goal 2 of Section 3).
	x.peers[3].send(x.bankEP(), &Msg{Type: MsgGetX, Line: line, Requester: x.peers[3].id})
	x.await(3, MsgBlockedHint, line)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgDelayedAck, Line: line, Requester: x.peers[0].id})
	x.peers[1].send(x.bankEP(), &Msg{Type: MsgDelayedAck, Line: line, Requester: x.peers[1].id})
	x.await(2, MsgRedirAck, line)
	x.peers[2].send(x.bankEP(), &Msg{Type: MsgUnblock, Line: line, Requester: x.peers[2].id})
	x.run(exStep)
	agg.AddBank(x.bank)
}

// ---------------------------------------------------------------------
// PCU scenarios. The scripted peer plays the home directory.
// ---------------------------------------------------------------------

// exCore is the scripted core behind an exercised PCU: it acknowledges
// everything and holds no lockdowns (the bank scenarios above cover the
// nacking side).
type exCore struct{}

func (exCore) LoadDone(sim.Cycle, uint64, mem.Word, bool) {}
func (exCore) AtomicDone(sim.Cycle, uint64, mem.Word)     {}
func (exCore) WritePerformed(sim.Cycle, mem.Line)         {}
func (exCore) OnInvalidation(sim.Cycle, mem.Line) bool    { return false }
func (exCore) HasLockdown(mem.Line) bool                  { return false }
func (exCore) OnOwnedEviction(sim.Cycle, mem.Line)        {}

// exPCUEP is the exercised PCU's endpoint on its bench.
const exPCUEP = network.Endpoint(0)

// newPCUBench builds a bench with one real PCU (endpoint 0) whose home
// directory for every line is the scripted peer at endpoint 1; the peer
// at endpoint 2 plays third-party cores named in forwards. The private
// caches are tiny and direct-mapped so scenarios can force writebacks.
func newPCUBench(mode Mode) *exBench {
	params := DefaultParams()
	params.L1Lines = 2
	params.L1Ways = 1
	params.L2Lines = 2
	params.L2Ways = 1
	params.MSHRs = 4
	params.ReservedMSHRs = 1
	x := &exBench{params: params}
	x.mesh = network.NewMesh(network.DefaultConfig(2), nil)
	routers := x.mesh.Routers()
	for i := 1; i <= 2; i++ {
		p := &exPeer{id: network.Endpoint(i), bch: x}
		x.mesh.Attach(p.id, i%routers, p)
		x.peers = append(x.peers, p)
	}
	home := func(mem.Line) network.Endpoint { return network.Endpoint(1) }
	x.pcu = NewPCU(exPCUEP, x.mesh, &x.params, home, exCore{}, mode)
	x.mesh.Attach(exPCUEP, 0, x.pcu)
	x.pcu.EnableConformance(NewConfChecker(func(ep network.Endpoint) bool { return ep == network.Endpoint(1) }))
	return x
}

// homePeer is the scripted home directory of a PCU bench (peer index 0,
// endpoint 1); peer index 1 (endpoint 2) is the third-party core.

// ownLine walks the PCU through load + exclusive grant + store so it
// owns line dirty.
func (x *exBench) ownLine(addr mem.Addr) {
	line := mem.LineOf(addr)
	x.pcu.Load(x.now, 1, addr, false)
	g := x.await(0, MsgGetS, line)
	x.peers[0].send(exPCUEP, &Msg{Type: MsgData, Line: line, Requester: g.Requester, HasData: true, Excl: true})
	x.await(0, MsgUnblock, line)
	if !x.pcu.StoreWrite(x.now, addr, 7) {
		panicf("exercise: store to owned line %v failed", line)
	}
}

// spillLine forces the owned line out of the private hierarchy by
// loading a line that collides with it, leaving the writeback (PutM) in
// flight and the data parked in the PCU's writeback buffer.
func (x *exBench) spillLine(addr mem.Addr) {
	line := mem.LineOf(addr)
	probe := cache.NewArray(x.params.L2Lines, x.params.L2Ways)
	coll := line + 1
	for probe.SetIndex(coll) != probe.SetIndex(line) {
		coll++
	}
	x.pcu.Load(x.now, 2, mem.Addr(coll)*mem.LineBytes, false)
	g := x.await(0, MsgGetS, coll)
	x.peers[0].send(exPCUEP, &Msg{Type: MsgData, Line: coll, Requester: g.Requester, HasData: true, Excl: true})
	x.await(0, MsgPutM, line)
}

// blockWrite walks the PCU into a blocked, hinted write on line plus a
// bypassed SoS read: the RdWr dispatch state of Section 3.5.2.
func (x *exBench) blockWrite(addr mem.Addr) {
	line := mem.LineOf(addr)
	x.pcu.StorePrefetch(x.now, line)
	x.await(0, MsgGetX, line)
	x.peers[0].send(exPCUEP, &Msg{Type: MsgBlockedHint, Line: line, Requester: exPCUEP})
	x.run(exStep)
	x.pcu.Load(x.now, 3, addr, true)
	x.await(0, MsgRetryRd, line)
}

// exercisePCU replays the core-machine races: stale hints, forwards
// that find the line in the writeback buffer, and every event arriving
// in the RdWr state.
func exercisePCU(mode Mode, agg *CoverageAgg) {
	line := mem.Line(0x40)
	addr := mem.Addr(line) * mem.LineBytes

	// (Idle, Hint) and (Rd, Hint): the write completed (or never
	// existed) before the hint arrived; the stale hint is dropped.
	x := newPCUBench(mode)
	x.peers[0].send(exPCUEP, &Msg{Type: MsgBlockedHint, Line: line, Requester: exPCUEP})
	x.run(exStep)
	x.pcu.Load(x.now, 1, addr, false)
	x.await(0, MsgGetS, line)
	x.peers[0].send(exPCUEP, &Msg{Type: MsgBlockedHint, Line: line, Requester: exPCUEP})
	x.run(exStep)
	agg.AddPCU(x.pcu)

	// (Rd, FwdGetS): we owned the line, evicted it (Put in flight), and
	// are re-reading it when a forward for the old ownership arrives —
	// served from the writeback buffer.
	x = newPCUBench(mode)
	x.ownLine(addr)
	x.spillLine(addr)
	x.pcu.Load(x.now, 4, addr, false)
	x.await(0, MsgGetS, line)
	x.peers[0].send(exPCUEP, &Msg{Type: MsgFwdGetS, Line: line, Requester: x.peers[1].id})
	x.await(1, MsgData, line)
	x.peers[0].send(exPCUEP, &Msg{Type: MsgPutAck, Line: line, Requester: exPCUEP, Stale: true})
	x.run(exStep)
	agg.AddPCU(x.pcu)

	// The RdWr suite: a blocked, hinted write with a bypassed SoS read
	// (Section 3.5.2), hit by each response and forward in turn.
	rdwr := func(f func(x *exBench)) {
		x := newPCUBench(mode)
		x.blockWrite(addr)
		f(x)
		x.run(exStep)
		agg.AddPCU(x.pcu)
	}
	// Tear-off answers the bypass read while the write stays blocked.
	rdwr(func(x *exBench) {
		x.peers[0].send(exPCUEP, &Msg{Type: MsgTearoff, Line: line, Requester: exPCUEP, HasData: true})
	})
	// A cacheable grant can answer the retried read instead.
	rdwr(func(x *exBench) {
		x.peers[0].send(exPCUEP, &Msg{Type: MsgData, Line: line, Requester: exPCUEP, HasData: true})
	})
	// The write unblocks first: DataExcl lands in RdWr.
	rdwr(func(x *exBench) {
		x.peers[0].send(exPCUEP, &Msg{Type: MsgDataExcl, Line: line, Requester: exPCUEP, HasData: true})
	})
	// A redirected ack from an earlier sharer arrives before the grant.
	rdwr(func(x *exBench) {
		x.peers[0].send(exPCUEP, &Msg{Type: MsgRedirAck, Line: line, Requester: exPCUEP})
	})
	// Another write's invalidation targets the line we are acquiring.
	rdwr(func(x *exBench) {
		x.peers[0].send(exPCUEP, &Msg{Type: MsgInv, Line: line, Requester: x.peers[1].id})
		x.await(1, MsgInvAck, line)
	})
	// A duplicate hint (queue entry + Nack choreography both hint).
	rdwr(func(x *exBench) {
		x.peers[0].send(exPCUEP, &Msg{Type: MsgBlockedHint, Line: line, Requester: exPCUEP})
	})

	// RdWr with the old ownership in the writeback buffer: stale
	// forwards and the Put's ack land while both MSHRs are live.
	rdwrOwned := func(f func(x *exBench)) {
		x := newPCUBench(mode)
		x.ownLine(addr)
		x.spillLine(addr)
		x.blockWrite(addr)
		f(x)
		x.run(exStep)
		agg.AddPCU(x.pcu)
	}
	rdwrOwned(func(x *exBench) {
		x.peers[0].send(exPCUEP, &Msg{Type: MsgFwdGetS, Line: line, Requester: x.peers[1].id})
		x.await(1, MsgData, line)
	})
	rdwrOwned(func(x *exBench) {
		x.peers[0].send(exPCUEP, &Msg{Type: MsgFwdGetX, Line: line, Requester: x.peers[1].id})
		x.await(1, MsgDataExcl, line)
	})
	rdwrOwned(func(x *exBench) {
		x.peers[0].send(exPCUEP, &Msg{Type: MsgPutAck, Line: line, Requester: exPCUEP})
	})
}

// ---------------------------------------------------------------------
// Tardis scenarios. The timestamp states are unreachable from the MESI
// benches (Shared is killed), so the lease lifecycle gets its own
// scripts.
// ---------------------------------------------------------------------

// tsShareLine forms a TsShared entry on line: c1 acquires exclusively,
// c2's read forwards to c1, whose scripted reply (leased Data to c2,
// OwnerData home) completes the 3-hop — with no Unblock leg, per the
// tardis delta.
func (x *exBench) tsShareLine(c1, c2 int, line mem.Line) {
	data := x.acquireE(c1, line)
	x.peers[c2].send(x.bankEP(), &Msg{Type: MsgGetS, Line: line, Requester: x.peers[c2].id})
	fwd := x.await(c1, MsgFwdGetS, line)
	x.peers[c1].send(fwd.Requester, &Msg{Type: MsgData, Line: line, Requester: fwd.Requester, Data: data, HasData: true, Lease: x.now + 100})
	x.peers[c1].send(x.bankEP(), &Msg{Type: MsgOwnerData, Line: line, Requester: fwd.Requester, Data: data, HasData: true})
	x.run(exStep)
}

// exerciseTardisDir replays the directory's lease lifecycle: leased
// reads stack with no transaction, stale Puts are refused, a write parks
// until the lease timer releases it, and an eviction waits out its
// leases in the buffer with no invalidation fan-out.
func exerciseTardisDir(agg *CoverageAgg) {
	line := mem.Line(0x40)

	// Write parked on a leased line: (TsS, Read/PutOwned/Write), then
	// (TsWaitW, Read/Write/PutOwned) queue and refuse behind the park,
	// and (TsWaitW, LeaseExpired) grants the writer exclusivity. The
	// park lasts until the read's lease expires, so the three sends go
	// out as soon as the write has parked.
	x := newDirBench(ModeTardis)
	x.tsShareLine(0, 1, line)
	x.peers[2].send(x.bankEP(), &Msg{Type: MsgGetS, Line: line, Requester: x.peers[2].id})
	x.await(2, MsgData, line)
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgPutM, Line: line, Requester: x.peers[0].id, HasData: true})
	x.await(0, MsgPutAck, line)
	x.peers[1].send(x.bankEP(), &Msg{Type: MsgGetX, Line: line, Requester: x.peers[1].id})
	x.awaitDir(dirStTsWaitWrite, line)
	x.peers[2].send(x.bankEP(), &Msg{Type: MsgGetS, Line: line, Requester: x.peers[2].id})
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgGetX, Line: line, Requester: x.peers[0].id})
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgPutM, Line: line, Requester: x.peers[0].id, HasData: true})
	x.run(exStep)
	x.await(1, MsgDataExcl, line)
	x.peers[1].send(x.bankEP(), &Msg{Type: MsgUnblock, Line: line, Requester: x.peers[1].id})
	x.await(1, MsgFwdGetS, line) // the queued read replays against the new owner
	agg.AddBank(x.bank)

	// Eviction of a leased entry: it parks in the eviction buffer
	// (TsWaitEv) — no invalidations exist to fan out — queues new work,
	// refuses a stale Put, and completes on the lease timer. A fresh
	// lease keeps the eviction parked while the three sends arrive.
	// The orphaned read then reads memory uncacheably (a tear-off): the
	// colliding line's grant, which the scripted peer never unblocks,
	// holds the only frame of the direct-mapped set.
	x = newDirBench(ModeTardis)
	x.tsShareLine(0, 1, line)
	x.peers[2].send(x.bankEP(), &Msg{Type: MsgGetS, Line: line, Requester: x.peers[2].id})
	x.await(2, MsgData, line)
	probe := cache.NewArray(x.params.LLCLines, x.params.LLCWays)
	coll := line + 1
	for probe.SetIndex(coll) != probe.SetIndex(line) {
		coll++
	}
	x.peers[2].send(x.bankEP(), &Msg{Type: MsgGetS, Line: coll, Requester: x.peers[2].id})
	x.awaitDir(dirStTsWaitEvict, line)
	x.peers[1].got = nil // tsShareLine's grant must not satisfy the await
	x.peers[1].send(x.bankEP(), &Msg{Type: MsgGetS, Line: line, Requester: x.peers[1].id})
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgGetX, Line: line, Requester: x.peers[0].id})
	x.peers[0].send(x.bankEP(), &Msg{Type: MsgPutM, Line: line, Requester: x.peers[0].id, HasData: true})
	x.await(0, MsgPutAck, line)
	x.await(1, MsgTearoff, line)
	agg.AddBank(x.bank)
}

// exerciseTardisPCU replays the core-side lease rows: a leased grant
// installs Shared and self-downgrades on its timer, a lease that lapsed
// in flight binds tear-off style, and forwards are served with a fresh
// lease from the cache or the writeback buffer — the owner dropping its
// copy either way.
func exerciseTardisPCU(agg *CoverageAgg) {
	line := mem.Line(0x40)
	addr := mem.Addr(line) * mem.LineBytes

	// Leased grant, then self-downgrade: after the expiry fires the copy
	// must be gone without any message in either direction.
	x := newPCUBench(ModeTardis)
	x.pcu.Load(x.now, 1, addr, false)
	g := x.await(0, MsgGetS, line)
	x.peers[0].send(exPCUEP, &Msg{Type: MsgData, Line: line, Requester: g.Requester, HasData: true, Lease: x.now + 100})
	x.run(exStep)
	if x.pcu.HasLineShared(line) {
		panicf("exercise: tardis lease on %v did not self-downgrade", line)
	}
	agg.AddPCU(x.pcu)

	// A grant whose lease lapsed in flight: the value binds tear-off
	// style and nothing is installed, so no stale copy can form.
	x = newPCUBench(ModeTardis)
	x.pcu.Load(x.now, 1, addr, false)
	g = x.await(0, MsgGetS, line)
	x.peers[0].send(exPCUEP, &Msg{Type: MsgData, Line: line, Requester: g.Requester, HasData: true, Lease: x.now})
	x.run(exStep)
	if x.pcu.HasLineShared(line) {
		panicf("exercise: expired-in-flight lease installed %v", line)
	}
	agg.AddPCU(x.pcu)

	// Forward served from the owned copy: leased data to the requester,
	// OwnerData home, and the owner drops the line entirely.
	x = newPCUBench(ModeTardis)
	x.ownLine(addr)
	x.peers[0].send(exPCUEP, &Msg{Type: MsgFwdGetS, Line: line, Requester: x.peers[1].id})
	d := x.await(1, MsgData, line)
	if d.Lease == 0 {
		panicf("exercise: tardis forward served %v without a lease", line)
	}
	x.await(0, MsgOwnerData, line)
	if x.pcu.HasLineShared(line) {
		panicf("exercise: tardis owner kept a copy of %v after serving a forward", line)
	}
	agg.AddPCU(x.pcu)
}

// ExerciseProtocol runs every directed scenario against all protocol
// modes and returns the merged transition coverage. It is deterministic
// and cheap (a few thousand simulated cycles on otherwise idle meshes).
func ExerciseProtocol() *CoverageAgg {
	agg := NewCoverageAgg()
	for _, mode := range []Mode{ModeSquash, ModeLockdown, ModeTardis} {
		exerciseDirStalePuts(mode, agg)
		exercisePCU(mode, agg)
	}
	exerciseDirEvictionWB(agg)
	exerciseDirWBWNackPair(agg)
	exerciseTardisDir(agg)
	exerciseTardisPCU(agg)
	return agg
}
