package coherence

import (
	"testing"

	"wbsim/internal/cache"
	"wbsim/internal/isa"
	"wbsim/internal/mem"
	"wbsim/internal/network"
	"wbsim/internal/sim"
)

// fakeCore implements CoreHooks with scriptable lockdown behaviour,
// recording every callback for assertions.
type fakeCore struct {
	pcu *PCU

	loads   map[uint64]loadEvent
	atomics map[uint64]mem.Word
	writes  []mem.Line
	invs    []mem.Line
	evicts  []mem.Line

	// lockLines simulates M-speculative loads: OnInvalidation nacks for
	// these lines and records the pending ack in seen.
	lockLines map[mem.Line]bool
	seen      []mem.Line
}

type loadEvent struct {
	value   mem.Word
	tearoff bool
}

func newFakeCore() *fakeCore {
	return &fakeCore{
		loads:     make(map[uint64]loadEvent),
		atomics:   make(map[uint64]mem.Word),
		lockLines: make(map[mem.Line]bool),
	}
}

func (f *fakeCore) LoadDone(now sim.Cycle, token uint64, value mem.Word, tearoff bool) {
	f.loads[token] = loadEvent{value: value, tearoff: tearoff}
}
func (f *fakeCore) AtomicDone(now sim.Cycle, token uint64, old mem.Word) {
	f.atomics[token] = old
}
func (f *fakeCore) WritePerformed(now sim.Cycle, line mem.Line) {
	f.writes = append(f.writes, line)
}
func (f *fakeCore) OnInvalidation(now sim.Cycle, line mem.Line) bool {
	f.invs = append(f.invs, line)
	if f.lockLines[line] {
		f.seen = append(f.seen, line)
		return true
	}
	return false
}
func (f *fakeCore) HasLockdown(line mem.Line) bool { return f.lockLines[line] }
func (f *fakeCore) OnOwnedEviction(now sim.Cycle, line mem.Line) {
	f.evicts = append(f.evicts, line)
}

// lift clears a scripted lockdown and sends the delayed ack if the
// invalidation was seen.
func (f *fakeCore) lift(now sim.Cycle, line mem.Line) {
	delete(f.lockLines, line)
	for i, l := range f.seen {
		if l == line {
			f.seen = append(f.seen[:i], f.seen[i+1:]...)
			f.pcu.LockdownLifted(now, line)
			return
		}
	}
}

// rig is a protocol test bench: n PCUs (with fake cores) + n banks.
// The testing.TB handle lets benchmarks share it.
type rig struct {
	t      testing.TB
	mesh   *network.Mesh
	memory *mem.Memory
	clock  sim.Clock
	cores  []*fakeCore
	pcus   []*PCU
	banks  []*Bank
}

func newRig(t testing.TB, n int, params Params) *rig {
	return newRigMode(t, n, params, ModeLockdown)
}

// newRigMode builds the rig under an explicit protocol mode so
// registry-driven tests and benchmarks can exercise every registered
// protocol through one harness.
func newRigMode(t testing.TB, n int, params Params, mode Mode) *rig {
	t.Helper()
	mesh := network.NewMesh(network.DefaultConfig(n), nil)
	memory := mem.NewMemory()
	r := &rig{t: t, mesh: mesh, memory: memory}
	home := func(l mem.Line) network.Endpoint {
		return network.Endpoint(n + int(uint64(l)%uint64(n)))
	}
	routers := mesh.Routers()
	for i := 0; i < n; i++ {
		fc := newFakeCore()
		p := NewPCU(network.Endpoint(i), mesh, &params, home, fc, mode)
		fc.pcu = p
		mesh.Attach(network.Endpoint(i), i%routers, p)
		b := NewBank(network.Endpoint(n+i), mesh, &params, memory, mode)
		mesh.Attach(network.Endpoint(n+i), i%routers, b)
		r.cores = append(r.cores, fc)
		r.pcus = append(r.pcus, p)
		r.banks = append(r.banks, b)
	}
	return r
}

// conflictLines returns n lines (distinct from seed) that map to seed's
// private-L2 set, to force capacity evictions in tests.
func conflictLines(params Params, seed mem.Line, n int) []mem.Line {
	probe := cacheProbe(params)
	want := probe.SetIndex(seed)
	var out []mem.Line
	for l := seed + 1; len(out) < n; l++ {
		if probe.SetIndex(l) == want {
			out = append(out, l)
		}
	}
	return out
}

func cacheProbe(params Params) *cache.Array {
	return cache.NewArray(params.L2Lines, params.L2Ways)
}

func testParams() Params {
	p := DefaultParams()
	p.LLCLines = 64
	p.L2Lines = 16
	p.L1Lines = 8
	p.EvictionBuf = 2
	p.MSHRs = 8
	p.ReservedMSHRs = 2
	return p
}

// run advances the rig n cycles.
func (r *rig) run(n int) {
	for i := 0; i < n; i++ {
		now := r.clock.Advance()
		r.mesh.Tick(now)
		for _, b := range r.banks {
			b.Tick(now)
		}
		for _, p := range r.pcus {
			p.Tick(now)
		}
	}
}

// settle runs until everything quiesces (or fails the test).
func (r *rig) settle() {
	r.t.Helper()
	for i := 0; i < 100000; i++ {
		now := r.clock.Advance()
		r.mesh.Tick(now)
		for _, b := range r.banks {
			b.Tick(now)
		}
		for _, p := range r.pcus {
			p.Tick(now)
		}
		// Quiescence must be evaluated after every component ticked: a
		// component event may have injected a new message this cycle.
		quiet := r.mesh.Quiescent()
		for _, b := range r.banks {
			quiet = quiet && b.Quiescent()
		}
		for _, p := range r.pcus {
			quiet = quiet && p.events.Empty()
		}
		if quiet {
			for _, b := range r.banks {
				b.CheckInvariants()
			}
			return
		}
	}
	r.t.Fatal("rig did not quiesce")
}

func (r *rig) now() sim.Cycle { return r.clock.Now() }

func TestColdReadGrantsExclusive(t *testing.T) {
	r := newRig(t, 2, testParams())
	addr := mem.Addr(0x1000)
	r.memory.WriteWord(addr, 42)

	res := r.pcus[0].Load(r.now(), 1, addr, true)
	if res.Status != LoadPending {
		t.Fatalf("cold load status = %v", res.Status)
	}
	r.settle()
	ev, ok := r.cores[0].loads[1]
	if !ok || ev.value != 42 || ev.tearoff {
		t.Fatalf("load event: %+v ok=%v", ev, ok)
	}
	if !r.pcus[0].HasWritePermission(mem.LineOf(addr)) {
		t.Fatal("first reader should receive MESI Exclusive")
	}
	// A hit afterwards is synchronous.
	res = r.pcus[0].Load(r.now(), 2, addr, true)
	if res.Status != LoadHit || res.Value != 42 {
		t.Fatalf("hit: %+v", res)
	}
}

func TestSecondReaderDowngradesOwner(t *testing.T) {
	r := newRig(t, 2, testParams())
	addr := mem.Addr(0x2000)
	r.memory.WriteWord(addr, 7)

	r.pcus[0].Load(r.now(), 1, addr, true)
	r.settle()
	// Owner dirties the line so the forward must supply fresh data.
	if !r.pcus[0].StoreWrite(r.now(), addr, 9) {
		t.Fatal("owner could not write its exclusive line")
	}
	r.pcus[1].Load(r.now(), 2, addr, true)
	r.settle()
	if ev := r.cores[1].loads[2]; ev.value != 9 {
		t.Fatalf("second reader got %d, want 9 (through FwdGetS)", ev.value)
	}
	if r.pcus[0].HasWritePermission(mem.LineOf(addr)) {
		t.Fatal("owner kept write permission after downgrade")
	}
	if !r.pcus[0].HasLineShared(mem.LineOf(addr)) || !r.pcus[1].HasLineShared(mem.LineOf(addr)) {
		t.Fatal("both cores should hold Shared copies")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	r := newRig(t, 3, testParams())
	addr := mem.Addr(0x3000)
	line := mem.LineOf(addr)

	// Cores 1 and 2 cache the line shared.
	r.pcus[1].Load(r.now(), 1, addr, true)
	r.settle()
	r.pcus[2].Load(r.now(), 2, addr, true)
	r.settle()

	// Core 0 writes: both sharers must be invalidated.
	if r.pcus[0].StoreWrite(r.now(), addr, 5) {
		t.Fatal("write hit without permission")
	}
	r.settle()
	if !r.pcus[0].StoreWrite(r.now(), addr, 5) {
		t.Fatal("write permission not acquired")
	}
	if len(r.cores[1].invs) == 0 || len(r.cores[2].invs) == 0 {
		t.Fatal("sharers did not see invalidations")
	}
	if r.pcus[1].HasLineShared(line) || r.pcus[2].HasLineShared(line) {
		t.Fatal("stale copies survive")
	}
	// And a subsequent read observes the new value.
	r.pcus[1].Load(r.now(), 3, addr, true)
	r.settle()
	if ev := r.cores[1].loads[3]; ev.value != 5 {
		t.Fatalf("reader got %d, want 5", ev.value)
	}
}

func TestUpgradeFromShared(t *testing.T) {
	r := newRig(t, 2, testParams())
	addr := mem.Addr(0x4000)
	r.memory.WriteWord(addr, 1)
	// Both cores share the line.
	r.pcus[0].Load(r.now(), 1, addr, true)
	r.settle()
	r.pcus[1].Load(r.now(), 2, addr, true)
	r.settle()
	// Core 0 upgrades.
	r.pcus[0].StorePrefetch(r.now(), mem.LineOf(addr))
	r.settle()
	if !r.pcus[0].StoreWrite(r.now(), addr, 2) {
		t.Fatal("upgrade did not grant permission")
	}
	if got := r.pcus[0].Stats.StoreMisses; got != 1 {
		t.Fatalf("store misses = %d", got)
	}
}

// TestLockdownBlocksWrite is the heart of the paper: an invalidation that
// hits a lockdown is Nacked, the directory enters WritersBlock, the write
// waits, concurrent readers receive old tear-off data, and the redirected
// ack releases the write when the lockdown lifts (Figure 3.B).
func TestLockdownBlocksWrite(t *testing.T) {
	r := newRig(t, 3, testParams())
	addr := mem.Addr(0x5000)
	line := mem.LineOf(addr)
	r.memory.WriteWord(addr, 10) // old value

	// Core 1 caches the line and sets a lockdown on it.
	r.pcus[1].Load(r.now(), 1, addr, true)
	r.settle()
	r.cores[1].lockLines[line] = true

	// Core 0 tries to write.
	r.pcus[0].StoreWrite(r.now(), addr, 99)
	r.run(2000)
	if r.pcus[0].StoreWrite(r.now(), addr, 99) {
		t.Fatal("write performed while a lockdown was held — TSO can be violated")
	}
	if len(r.cores[1].seen) != 1 {
		t.Fatalf("lockdown did not record the invalidation: %v", r.cores[1].seen)
	}
	bank := r.banks[int(uint64(line)%3)]
	if bank.Stats.BlockedWrites != 1 || bank.Stats.WBEntries != 1 {
		t.Fatalf("bank stats: %+v", bank.Stats)
	}

	// A third core reads while the write is blocked: it must get an
	// uncacheable tear-off copy of the OLD value.
	r.pcus[2].Load(r.now(), 2, addr, true)
	r.run(2000)
	ev, ok := r.cores[2].loads[2]
	if !ok || !ev.tearoff || ev.value != 10 {
		t.Fatalf("tear-off read: %+v ok=%v (want old value 10)", ev, ok)
	}
	if r.pcus[2].HasLineShared(line) {
		t.Fatal("tear-off copy must not be cached")
	}

	// Lift the lockdown: the delayed ack redirects through the directory
	// and the write completes.
	r.cores[1].lift(r.now(), line)
	r.settle()
	if !r.pcus[0].StoreWrite(r.now(), addr, 99) {
		t.Fatal("write still blocked after the lockdown lifted")
	}
	r.settle()
	// New reads see the new value.
	r.pcus[2].Load(r.now(), 3, addr, true)
	r.settle()
	if ev := r.cores[2].loads[3]; ev.value != 99 || ev.tearoff {
		t.Fatalf("post-write read: %+v", ev)
	}
}

// TestWBQueuesSecondWriter checks goal (2) of Section 3: no later write
// may be performed before the blocked store, and the queued writer
// receives a BlockedHint.
func TestWBQueuesSecondWriter(t *testing.T) {
	r := newRig(t, 3, testParams())
	addr := mem.Addr(0x6000)
	line := mem.LineOf(addr)

	r.pcus[1].Load(r.now(), 1, addr, true)
	r.settle()
	r.cores[1].lockLines[line] = true

	r.pcus[0].StoreWrite(r.now(), addr, 50) // first writer -> blocked
	r.run(1500)
	r.pcus[2].StoreWrite(r.now(), addr, 60) // second writer -> queued
	r.run(1500)
	if r.pcus[0].StoreWrite(r.now(), addr, 50) || r.pcus[2].StoreWrite(r.now(), addr, 60) {
		t.Fatal("a write performed while the line is in WritersBlock")
	}
	bank := r.banks[int(uint64(line)%3)]
	if bank.Stats.QueuedWrites != 1 {
		t.Fatalf("queued writes = %d", bank.Stats.QueuedWrites)
	}

	r.cores[1].lift(r.now(), line)
	r.settle()
	// Both writers complete once the lockdown lifts. Ownership may have
	// already migrated to the queued writer by the time the first
	// retries (the store buffer would re-request), so retry bounded.
	writeEventually := func(p *PCU, v mem.Word) {
		t.Helper()
		for i := 0; i < 10; i++ {
			if p.StoreWrite(r.now(), addr, v) {
				return
			}
			r.settle()
		}
		t.Fatalf("writer %d never regained permission", p.id)
	}
	writeEventually(r.pcus[0], 50)
	writeEventually(r.pcus[2], 60)
}

// TestTearoffUnusableWhenUnordered: an unordered load that receives
// tear-off data must not bind it (Section 3.4: only the ordered SoS load
// may) — the PCU reports tearoff=true and the core retries when ordered.
func TestTearoffRetry(t *testing.T) {
	r := newRig(t, 3, testParams())
	addr := mem.Addr(0x7000)
	line := mem.LineOf(addr)
	r.memory.WriteWord(addr, 3)

	r.pcus[1].Load(r.now(), 1, addr, true)
	r.settle()
	r.cores[1].lockLines[line] = true
	r.pcus[0].StoreWrite(r.now(), addr, 4)
	r.run(1500) // directory now in WB

	// Unordered load from core 2: gets a tear-off it cannot use.
	r.pcus[2].Load(r.now(), 7, addr, false)
	r.run(1500)
	ev := r.cores[2].loads[7]
	if !ev.tearoff {
		t.Fatalf("expected tear-off, got %+v", ev)
	}
	// The (simulated) core retries once the load is ordered — while the
	// WB persists it just gets another tear-off, usable this time.
	r.pcus[2].Load(r.now(), 8, addr, true)
	r.run(1500)
	if ev := r.cores[2].loads[8]; !ev.tearoff || ev.value != 3 {
		t.Fatalf("ordered retry: %+v", ev)
	}

	r.cores[1].lift(r.now(), line)
	r.settle()
}

// TestPutSKeepsSharer checks Section 3.8: evicting an owned line under a
// lockdown downgrades in place, so a later write still sends the core an
// invalidation (which finds the lockdown).
func TestPutSKeepsSharer(t *testing.T) {
	params := testParams()
	r := newRig(t, 2, params)
	addr := mem.Addr(0x8000)
	line := mem.LineOf(addr)

	// Core 1 owns the line dirty and holds a lockdown on it.
	r.pcus[1].Load(r.now(), 1, addr, true)
	r.settle()
	r.pcus[1].StoreWrite(r.now(), addr, 123)
	r.settle()
	if !r.pcus[1].StoreWrite(r.now(), addr, 123) {
		r.settle()
		if !r.pcus[1].StoreWrite(r.now(), addr, 123) {
			t.Fatal("owner cannot write")
		}
	}
	r.cores[1].lockLines[line] = true

	// Force the line out of core 1's tiny L2 by filling its set.
	for i, conflict := range conflictLines(params, line, params.L2Ways) {
		r.pcus[1].Load(r.now(), uint64(100+i), conflict.Base(), true)
		r.settle()
	}
	if r.pcus[1].HasLineShared(line) {
		t.Fatal("line was not evicted; test setup broken")
	}
	if r.pcus[1].Stats.LockdownPutS == 0 {
		t.Fatal("eviction under lockdown did not use PutS")
	}

	// A writer must still reach core 1's lockdown.
	r.pcus[0].StoreWrite(r.now(), addr, 7)
	r.run(2500)
	if len(r.cores[1].seen) == 0 {
		t.Fatal("invalidation did not reach the PutS'd core's lockdown")
	}
	if r.pcus[0].StoreWrite(r.now(), addr, 7) {
		t.Fatal("write performed despite the lockdown")
	}
	r.cores[1].lift(r.now(), line)
	r.settle()
	if !r.pcus[0].StoreWrite(r.now(), addr, 7) {
		t.Fatal("write still blocked")
	}
	// The PutS data must have survived: read back the pre-write value
	// history — after core 0's write the value is 7; core 1's 123 was
	// the pre-write value delivered to core 0's fill.
	r.settle()
}

// TestAtomicRMW checks atomic fetch-add through cold misses and
// ping-ponging ownership.
func TestAtomicRMW(t *testing.T) {
	r := newRig(t, 2, testParams())
	addr := mem.Addr(0x9000)

	token := uint64(1)
	for i := 0; i < 10; i++ {
		core := i % 2
		if !r.pcus[core].AtomicExec(r.now(), token, addr, isa.FnFetchAdd, 1) {
			t.Fatalf("atomic %d rejected", i)
		}
		r.settle()
		if old, ok := r.cores[core].atomics[token]; !ok || old != mem.Word(i) {
			t.Fatalf("atomic %d old = %d ok=%v, want %d", i, old, ok, i)
		}
		token++
	}
	if got, _ := r.pcus[1].PeekWord(addr); got != 10 {
		t.Fatalf("final counter = %d", got)
	}
}

// TestDirectoryEvictionInvalidates: evicting a directory entry must
// back-invalidate sharers (inclusive LLC) and write dirty data to memory.
func TestDirectoryEvictionInvalidates(t *testing.T) {
	params := testParams()
	params.LLCLines = 8 // 1 set x 8 ways per bank — tiny
	params.LLCWays = 8
	r := newRig(t, 2, params)

	// Dirty one line through core 0.
	addr := mem.Addr(0)
	r.pcus[0].Load(r.now(), 1, addr, true)
	r.settle()
	r.pcus[0].StoreWrite(r.now(), addr, 77)
	r.settle()
	r.pcus[0].StoreWrite(r.now(), addr, 77)

	// Stream more lines of the same bank (stride 2 lines = bank 0) until
	// the first is evicted from the directory.
	for i := 1; i <= 10; i++ {
		a := mem.Addr(i * 2 * mem.LineBytes)
		r.pcus[1].Load(r.now(), uint64(100+i), a, true)
		r.settle()
	}
	if r.banks[0].Stats.Evictions == 0 {
		t.Fatal("no directory evictions happened; sizing broken")
	}
	// The owner was invalidated and dirty data reached memory.
	if r.pcus[0].HasLineShared(mem.LineOf(addr)) {
		t.Fatal("back-invalidation did not reach the owner")
	}
	if got := r.memory.ReadWord(addr); got != 77 {
		t.Fatalf("memory = %d, want 77", got)
	}
}

// TestWBEvictionBuffer: a directory entry that enters WritersBlock via an
// eviction invalidation parks in the eviction buffer until the delayed
// ack arrives (Section 3.5.1).
func TestWBEvictionBuffer(t *testing.T) {
	params := testParams()
	params.LLCLines = 8
	params.LLCWays = 8
	r := newRig(t, 2, params)

	addr := mem.Addr(0)
	line := mem.LineOf(addr)
	r.memory.WriteWord(addr, 5)
	r.pcus[0].Load(r.now(), 1, addr, true)
	r.settle()
	r.cores[0].lockLines[line] = true

	// Evict the entry from bank 0 by streaming conflicting lines. The
	// parked WB entry keeps the bank legitimately busy, so settle()
	// cannot be used until the lockdown lifts.
	for i := 1; i <= 8; i++ {
		a := mem.Addr(i * 2 * mem.LineBytes)
		r.pcus[1].Load(r.now(), uint64(100+i), a, true)
		r.run(1000)
	}
	if r.banks[0].Stats.EvictionsWB == 0 {
		t.Fatal("eviction under lockdown did not park in WB")
	}
	// Reads of the parked line get tear-offs.
	r.pcus[1].Load(r.now(), 500, addr, true)
	r.run(2000)
	if ev := r.cores[1].loads[500]; !ev.tearoff || ev.value != 5 {
		t.Fatalf("parked-entry read: %+v", ev)
	}
	// Lifting the lockdown completes the eviction.
	r.cores[0].lift(r.now(), line)
	r.settle()
	if got := r.memory.ReadWord(addr); got != 5 {
		t.Fatalf("memory after parked eviction = %d", got)
	}
}

// TestSoSBypassOnBlockedWrite: a SoS load piggybacked on a write that is
// blocked in WritersBlock must launch its own read on a reserved MSHR and
// obtain tear-off data (Section 3.5.2 — the MSHR deadlock).
func TestSoSBypassOnBlockedWrite(t *testing.T) {
	r := newRig(t, 3, testParams())
	addr := mem.Addr(0xa000)
	line := mem.LineOf(addr)
	r.memory.WriteWord(addr, 8)

	// Core 1 holds a lockdown on the line.
	r.pcus[1].Load(r.now(), 1, addr, true)
	r.settle()
	r.cores[1].lockLines[line] = true

	// Core 0's write blocks in WB.
	r.pcus[0].StoreWrite(r.now(), addr, 9)
	r.run(2000)

	// A load on core 0 to the same line piggybacks on the blocked write.
	res := r.pcus[0].Load(r.now(), 42, addr, false)
	if res.Status != LoadPending {
		t.Fatalf("load status = %v", res.Status)
	}
	r.run(200)
	if _, done := r.cores[0].loads[42]; done {
		t.Fatal("unordered load should wait behind the write")
	}
	if n := r.pcus[0].blockedWrites; n != 1 {
		t.Fatalf("blocked-write count before the bypass = %d, want 1", n)
	}
	// The load becomes the SoS load: it must bypass the blocked write.
	r.pcus[0].PromoteSoS(r.now(), 42, addr)
	r.run(2000)
	ev, ok := r.cores[0].loads[42]
	if !ok || !ev.tearoff || ev.value != 8 {
		t.Fatalf("SoS bypass: %+v ok=%v", ev, ok)
	}
	if r.pcus[0].Stats.SoSBypasses != 1 {
		t.Fatalf("bypasses = %d", r.pcus[0].Stats.SoSBypasses)
	}

	r.cores[1].lift(r.now(), line)
	r.settle()
	if n := r.pcus[0].blockedWrites; n != 0 {
		t.Fatalf("blocked-write count after the write completed = %d, want 0", n)
	}
	r.pcus[0].CheckInvariants()
}

// TestWritePastFullDirectorySet: a write that cannot allocate a directory
// frame (all ways transient) retries and eventually completes once the
// blocking transactions resolve, and hints its requester.
func TestReadPastFullDirectorySet(t *testing.T) {
	params := testParams()
	params.LLCLines = 4
	params.LLCWays = 4
	params.EvictionBuf = 1
	r := newRig(t, 2, params)

	// Fill bank 0's single set with lockdown-parked WB entries. (While
	// writes are deliberately blocked, settle() cannot be used: the bank
	// legitimately stays busy, so bounded run() steps are used instead.)
	var parked []mem.Line
	for i := 0; i < 3; i++ {
		a := mem.Addr(i * 2 * mem.LineBytes)
		l := mem.LineOf(a)
		r.pcus[0].Load(r.now(), uint64(i), a, true)
		r.run(1200)
		if _, ok := r.cores[0].loads[uint64(i)]; !ok {
			t.Fatalf("setup load %d did not complete", i)
		}
		r.cores[0].lockLines[l] = true
		parked = append(parked, l)
		// A writer from core 1 pushes each line into WB.
		r.pcus[1].StoreWrite(r.now(), a, 1)
		r.run(1200)
	}
	// A read to a fresh line of the same bank must still complete (it
	// may be served uncacheably straight from memory).
	fresh := mem.Addr(100 * 2 * mem.LineBytes)
	r.memory.WriteWord(fresh, 31)
	r.pcus[1].Load(r.now(), 999, fresh, true)
	r.run(3000)
	if ev, ok := r.cores[1].loads[999]; !ok || ev.value != 31 {
		t.Fatalf("read starved by WB-full directory set: %+v ok=%v", ev, ok)
	}
	// Cleanup: lift all lockdowns; everything must drain.
	for _, l := range parked {
		r.cores[0].lift(r.now(), l)
		r.run(50)
	}
	r.settle()
}

// TestNonSilentSharedEviction: with NonSilentSharedEvictions enabled, a
// shared-line eviction removes the core from the sharer list, so a later
// write sends no invalidation to it.
func TestNonSilentSharedEviction(t *testing.T) {
	params := testParams()
	params.NonSilentSharedEvictions = true
	r := newRig(t, 2, params)

	addr := mem.Addr(0xb000)
	line := mem.LineOf(addr)
	// Both cores share the line (second read downgrades the first).
	r.pcus[0].Load(r.now(), 1, addr, true)
	r.settle()
	r.pcus[1].Load(r.now(), 2, addr, true)
	r.settle()

	// Evict it from core 0 by filling its set.
	for i, conflict := range conflictLines(params, line, params.L2Ways) {
		r.pcus[0].Load(r.now(), uint64(100+i), conflict.Base(), true)
		r.settle()
	}
	if r.pcus[0].HasLineShared(line) {
		t.Fatal("line not evicted; sizing broken")
	}
	invsBefore := len(r.cores[0].invs)

	// Core 1 upgrades: core 0 must NOT receive an invalidation (it left
	// the sharer list via PutSh).
	r.pcus[1].StorePrefetch(r.now(), line)
	r.settle()
	if !r.pcus[1].StoreWrite(r.now(), addr, 9) {
		t.Fatal("upgrade failed")
	}
	if len(r.cores[0].invs) != invsBefore {
		t.Fatal("PutSh'd core still received an invalidation")
	}
}

// TestSilentSharedEvictionGhost: with the (default) silent policy, the
// same scenario must deliver the invalidation to the ghost sharer.
func TestSilentSharedEvictionGhost(t *testing.T) {
	params := testParams()
	r := newRig(t, 2, params)

	addr := mem.Addr(0xb000)
	line := mem.LineOf(addr)
	r.pcus[0].Load(r.now(), 1, addr, true)
	r.settle()
	r.pcus[1].Load(r.now(), 2, addr, true)
	r.settle()
	for i, conflict := range conflictLines(params, line, params.L2Ways) {
		r.pcus[0].Load(r.now(), uint64(100+i), conflict.Base(), true)
		r.settle()
	}
	if r.pcus[0].HasLineShared(line) {
		t.Fatal("line not evicted")
	}
	invsBefore := len(r.cores[0].invs)
	r.pcus[1].StorePrefetch(r.now(), line)
	r.settle()
	if len(r.cores[0].invs) != invsBefore+1 {
		t.Fatalf("ghost sharer invs: %d -> %d", invsBefore, len(r.cores[0].invs))
	}
}

// TestUpgradeInvalidationRace: core 0 holds S and upgrades; core 1's
// write is processed first, invalidating core 0 mid-upgrade. Core 0's
// grant must then carry full data.
func TestUpgradeInvalidationRace(t *testing.T) {
	r := newRig(t, 2, testParams())
	addr := mem.Addr(0xc000)
	r.memory.WriteWord(addr, 1)

	// Both share the line.
	r.pcus[0].Load(r.now(), 1, addr, true)
	r.settle()
	r.pcus[1].Load(r.now(), 2, addr, true)
	r.settle()

	// Both upgrade in the same cycle; the directory serializes them.
	r.pcus[0].StorePrefetch(r.now(), mem.LineOf(addr))
	r.pcus[1].StorePrefetch(r.now(), mem.LineOf(addr))
	r.settle()
	// Exactly one of them owns the line; the other completes via a
	// forward and can still write after re-requesting.
	w0 := r.pcus[0].StoreWrite(r.now(), addr, 10)
	w1 := r.pcus[1].StoreWrite(r.now(), addr, 20)
	if w0 == w1 {
		t.Fatalf("expected exactly one immediate owner, got %v/%v", w0, w1)
	}
	r.settle()
	loser, val := r.pcus[0], mem.Word(10)
	if w0 {
		loser, val = r.pcus[1], 20
	}
	for i := 0; i < 10 && !loser.StoreWrite(r.now(), addr, val); i++ {
		r.settle()
	}
	if got, _ := loser.PeekWord(addr); got != val {
		t.Fatalf("loser's write lost: %d", got)
	}
}

// TestInvToLineWithReadMiss: an invalidation arriving while a read for
// the same line is queued at the directory (silent-eviction ghost) must
// not disturb the read.
func TestInvToLineWithReadMiss(t *testing.T) {
	r := newRig(t, 3, testParams())
	addr := mem.Addr(0xd000)
	r.memory.WriteWord(addr, 4)

	// Core 0 shares the line, core 1 will write, core 2 reads late.
	r.pcus[0].Load(r.now(), 1, addr, true)
	r.settle()
	r.pcus[1].StoreWrite(r.now(), addr, 5)
	// While the write is in flight, core 2 issues a read (queues).
	r.run(5)
	r.pcus[2].Load(r.now(), 9, addr, true)
	r.settle()
	for i := 0; i < 10 && !r.pcus[1].StoreWrite(r.now(), addr, 5); i++ {
		r.settle()
	}
	r.settle()
	// Core 2 sees either the old or new value, never garbage.
	ev := r.cores[2].loads[9]
	if ev.value != 4 && ev.value != 5 {
		t.Fatalf("queued read got %d", ev.value)
	}
}

// TestPCUStatsAccounting spot-checks the hit/miss counters.
func TestPCUStatsAccounting(t *testing.T) {
	r := newRig(t, 1, testParams())
	addr := mem.Addr(0xe000)
	r.pcus[0].Load(r.now(), 1, addr, true) // cold miss
	r.settle()
	r.pcus[0].Load(r.now(), 2, addr, true)   // L1 hit
	r.pcus[0].Load(r.now(), 3, addr+8, true) // L1 hit (same line)
	st := r.pcus[0].Stats
	if st.LoadMisses != 1 || st.LoadL1Hits != 2 {
		t.Fatalf("stats: %+v", st)
	}
}
