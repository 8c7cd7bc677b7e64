package core

import (
	"reflect"
	"testing"

	"wbsim/internal/isa"
	"wbsim/internal/mem"
)

// runOne builds a 1..n-core system, runs it, and returns it.
func runOne(t *testing.T, v Variant, progs ...*isa.Program) *System {
	t.Helper()
	cfg := SmallConfig(len(progs), v)
	sys := NewSystem(cfg, progs)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestBranchRecovery checks architectural correctness across heavy
// data-dependent (hard-to-predict) branching.
func TestBranchRecovery(t *testing.T) {
	b := isa.NewBuilder("branchy")
	// Collatz-ish: r1 = 27; r2 counts steps of: if odd r1=3r1+1 else r1/=2.
	b.MovImm(1, 27)
	b.MovImm(2, 0)
	loop := b.Here()
	odd := b.NewLabel()
	cont := b.NewLabel()
	b.ALUI(isa.FnAnd, 3, 1, 1)
	b.BranchI(isa.FnNE, 3, 0, odd)
	b.ALUI(isa.FnShr, 1, 1, 1)
	b.Jump(cont)
	b.Bind(odd)
	b.ALUI(isa.FnMul, 1, 1, 3)
	b.ALUI(isa.FnAdd, 1, 1, 1)
	b.Bind(cont)
	b.ALUI(isa.FnAdd, 2, 2, 1)
	b.BranchI(isa.FnNE, 1, 1, loop)
	b.Halt()

	for _, v := range Variants {
		sys := runOne(t, v, b.Program())
		if got := sys.Cores[0].Reg(2); got != 111 {
			t.Errorf("%v: collatz steps = %d, want 111", v, got)
		}
		if sys.Cores[0].Stats.SquashBranch == 0 {
			t.Errorf("%v: no branch mispredictions — test is vacuous", v)
		}
	}
}

// TestStoreLoadForwarding checks that a load takes the youngest older
// store's value before it reaches memory.
func TestStoreLoadForwarding(t *testing.T) {
	b := isa.NewBuilder("fwd")
	b.MovImm(1, 0x1000)
	b.MovImm(2, 11)
	b.Store(1, 0, 2)
	b.MovImm(2, 22)
	b.Store(1, 0, 2)
	b.Load(3, 1, 0) // must see 22 (youngest)
	b.Halt()
	sys := runOne(t, OoOWB, b.Program())
	if got := sys.Cores[0].Reg(3); got != 22 {
		t.Fatalf("forwarded %d, want 22", got)
	}
	if sys.Cores[0].Stats.Forwards == 0 {
		t.Fatal("no forward recorded")
	}
}

// TestMemDepReplay: a load that speculatively bypasses an older store
// with a late-resolving address to the same word must replay and read
// the store's value.
func TestMemDepReplay(t *testing.T) {
	b := isa.NewBuilder("memdep")
	b.MovImm(1, 0x2000)
	b.MovImm(2, 5)
	b.Store(1, 0, 2) // seed [0x2000] = 5 (drains to cache)
	// Long dependency chain computing the store address (= 0x2000).
	b.MovImm(3, 0x1000)
	for i := 0; i < 6; i++ {
		b.Work(3, 3, 0, 9) // r3 += 0, slowly
	}
	b.AddI(3, 3, 0x1000) // r3 = 0x2000 after ~54 cycles
	b.MovImm(4, 77)
	b.Store(3, 0, 4) // store with late address
	b.Load(5, 1, 0)  // speculative load of the same word
	b.Halt()
	for _, v := range []Variant{InOrderBase, OoOWB} {
		sys := runOne(t, v, b.Program())
		if got := sys.Cores[0].Reg(5); got != 77 {
			t.Errorf("%v: load got %d, want 77 (store-to-load order)", v, got)
		}
	}
}

// TestAtomicIsFence: a load younger than an atomic must not forward from
// a store older than the atomic.
func TestAtomicIsFence(t *testing.T) {
	b := isa.NewBuilder("fence")
	b.MovImm(1, 0x3000) // data
	b.MovImm(2, 0x4000) // atomic target
	b.MovImm(3, 9)
	b.Store(1, 0, 3)                     // st [data] = 9 (sits in SB)
	b.Atomic(isa.FnFetchAdd, 4, 2, 0, 3) // fence: drains SB
	b.Load(5, 1, 0)                      // must read from memory (9), not forward
	b.Halt()
	sys := runOne(t, OoOWB, b.Program())
	if got := sys.Cores[0].Reg(5); got != 9 {
		t.Fatalf("r5 = %d", got)
	}
	// The load must not have been satisfied by forwarding.
	if sys.Cores[0].Stats.Forwards != 0 {
		t.Fatal("load forwarded across an atomic fence")
	}
}

// TestOoOCommitHappens verifies the WB variant actually commits out of
// order on a hit-under-miss pattern, and the safe variant does not commit
// M-speculative loads.
func TestOoOCommitHappens(t *testing.T) {
	build := func() *isa.Program {
		b := isa.NewBuilder("hum")
		b.MovImm(1, 0x10000)
		b.MovImm(2, 0x50000)
		// Warm the hit line.
		b.Load(3, 2, 0)
		b.MovImm(10, 40)
		loop := b.Here()
		b.Load(4, 1, 0)   // miss (streaming)
		b.Load(5, 2, 0)   // hit: binds early -> M-speculative
		b.AddI(1, 1, 256) // new line each iteration
		b.ALUI(isa.FnSub, 10, 10, 1)
		b.BranchI(isa.FnNE, 10, 0, loop)
		b.Halt()
		return b.Program()
	}
	wb := runOne(t, OoOWB, build())
	if wb.Cores[0].Stats.MSpecCommits == 0 {
		t.Fatal("ooo-wb never committed an M-speculative load")
	}
	if wb.Cores[0].Stats.LDTExports == 0 {
		t.Fatal("no lockdown exported to the LDT")
	}
	safe := runOne(t, OoOBase, build())
	if safe.Cores[0].Stats.MSpecCommits != 0 {
		t.Fatal("safe OoO commit committed an M-speculative load")
	}
	// And the WB machine should be at least as fast.
	if wb.Clock.Now() > safe.Clock.Now() {
		t.Errorf("ooo-wb slower than ooo-base on hit-under-miss: %d vs %d",
			wb.Clock.Now(), safe.Clock.Now())
	}
}

// TestLDTCapacityGates: with a 1-entry LDT, M-speculative commits are
// throttled (LDT-full stalls appear) but correctness holds.
func TestLDTCapacityGates(t *testing.T) {
	b := isa.NewBuilder("ldt")
	b.MovImm(1, 0x10000)
	b.MovImm(2, 0x50000)
	b.Load(3, 2, 0)
	b.MovImm(10, 30)
	loop := b.Here()
	b.Load(4, 1, 0)
	b.Load(5, 2, 0)
	b.Load(6, 2, 8)
	b.AddI(1, 1, 256)
	b.ALUI(isa.FnSub, 10, 10, 1)
	b.BranchI(isa.FnNE, 10, 0, loop)
	b.Halt()

	cc := CoreConfig(SLM)
	cc.LDTSize = 1
	cfg := SmallConfig(1, OoOWB)
	cfg.CoreOverride = &cc
	OoOWB.Apply(&cc)
	sys := NewSystem(cfg, []*isa.Program{b.Program()})
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Cores[0].Stats.LDTFullStalls == 0 {
		t.Fatal("1-entry LDT never filled")
	}
}

// TestStallAccounting: a load-miss-bound single-issue stream under
// in-order commit should report mostly ROB-full stalls.
func TestStallAccounting(t *testing.T) {
	b := isa.NewBuilder("stalls")
	b.MovImm(1, 0x10000)
	b.MovImm(10, 60)
	loop := b.Here()
	b.Load(2, 1, 0)
	b.AddI(1, 1, 512)
	b.ALUI(isa.FnSub, 10, 10, 1)
	b.BranchI(isa.FnNE, 10, 0, loop)
	b.Halt()
	sys := runOne(t, InOrderBase, b.Program())
	st := sys.Cores[0].Stats
	if st.StallROB == 0 {
		t.Fatalf("no ROB stalls on a miss stream: %+v", st)
	}
}

// TestRegisterRenamingWAW: out-of-order commit must preserve the final
// architectural value under write-after-write to the same register.
func TestRegisterRenamingWAW(t *testing.T) {
	b := isa.NewBuilder("waw")
	b.MovImm(1, 0x10000)
	b.Load(2, 1, 0)            // slow miss
	b.ALUI(isa.FnAdd, 3, 2, 1) // depends on the miss: completes late
	b.MovImm(3, 42)            // younger WAW write: completes early
	b.Halt()
	for _, v := range Variants {
		sys := runOne(t, v, b.Program())
		if got := sys.Cores[0].Reg(3); got != 42 {
			t.Errorf("%v: r3 = %d, want 42 (WAW order)", v, got)
		}
	}
}

// TestDeterministicCycles: same seed, same cycle count; different seeds
// with jitter, (almost surely) different interleavings but identical
// architectural results.
func TestDeterministicCycles(t *testing.T) {
	b := func() *isa.Program {
		bb := isa.NewBuilder("p")
		bb.MovImm(1, 0x1000)
		bb.MovImm(2, 3)
		bb.Store(1, 0, 2)
		bb.Load(3, 1, 0)
		bb.Halt()
		return bb.Program()
	}
	var cycles []uint64
	for i := 0; i < 2; i++ {
		cfg := SmallConfig(1, OoOWB)
		cfg.Seed = 9
		cfg.JitterMax = 16
		sys := NewSystem(cfg, []*isa.Program{b()})
		c, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, uint64(c))
	}
	if cycles[0] != cycles[1] {
		t.Fatalf("nondeterministic: %v", cycles)
	}
}

// TestSquashEliminationOnSharing: a producer/consumer pattern that causes
// consistency squashes under the squash-based variants must cause none
// under lockdown mode.
func TestSquashEliminationOnSharing(t *testing.T) {
	reader := func() *isa.Program {
		b := isa.NewBuilder("r")
		b.MovImm(1, 0x10000) // miss stream
		b.MovImm(2, 0x50000) // shared hot line
		b.Load(3, 2, 0)      // warm
		b.MovImm(10, 60)
		loop := b.Here()
		b.Load(4, 1, 0) // miss
		b.Load(5, 2, 0) // hit on the contended line -> M-speculative
		b.AddI(1, 1, 512)
		b.ALUI(isa.FnSub, 10, 10, 1)
		b.BranchI(isa.FnNE, 10, 0, loop)
		b.Halt()
		return b.Program()
	}
	writer := func() *isa.Program {
		b := isa.NewBuilder("w")
		b.MovImm(1, 0x50000)
		b.MovImm(10, 60)
		loop := b.Here()
		b.Load(2, 1, 0)
		b.ALUI(isa.FnAdd, 2, 2, 1)
		b.Store(1, 0, 2) // repeatedly invalidate the reader
		b.Work(3, 3, 3, 8)
		b.ALUI(isa.FnSub, 10, 10, 1)
		b.BranchI(isa.FnNE, 10, 0, loop)
		b.Halt()
		return b.Program()
	}

	base := runOne(t, OoOBase, reader(), writer())
	if base.Collect().SquashInv == 0 {
		t.Fatal("squash-based variant saw no consistency squashes — test is vacuous")
	}
	wb := runOne(t, OoOWB, reader(), writer())
	res := wb.Collect()
	if res.SquashInv != 0 || res.SquashEvict != 0 {
		t.Fatalf("lockdown mode squashed on consistency: %+v", res)
	}
	if res.Nacks == 0 {
		t.Fatal("lockdown mode never nacked — reordering not exercised")
	}
}

// TestWrongPathLoadsHarmless: wrong-path loads may issue coherence
// traffic but must never corrupt architectural state.
func TestWrongPathLoadsHarmless(t *testing.T) {
	b := isa.NewBuilder("wrongpath")
	b.MovImm(1, 0x1000)
	b.MovImm(2, 7)
	b.Store(1, 0, 2)
	b.MovImm(10, 50)
	loop := b.Here()
	skip := b.NewLabel()
	b.ALUI(isa.FnAnd, 3, 10, 1)
	b.BranchI(isa.FnEQ, 3, 0, skip) // alternates: mispredicts often
	b.Load(4, 1, 0)
	b.Bind(skip)
	b.ALUI(isa.FnSub, 10, 10, 1)
	b.BranchI(isa.FnNE, 10, 0, loop)
	b.Halt()
	for _, v := range Variants {
		sys := runOne(t, v, b.Program())
		if got := sys.Cores[0].Reg(4); got != 7 {
			t.Errorf("%v: r4 = %d, want 7", v, got)
		}
	}
}

// TestUnsafeModeStillRunsPrograms: the demonstration variant must remain
// functional for programs whose correctness does not depend on load-load
// ordering (its only intended deviation is TSO visibility).
func TestUnsafeModeStillRunsPrograms(t *testing.T) {
	b := isa.NewBuilder("unsafe-smoke")
	b.MovImm(1, 0x1000)
	b.MovImm(10, 20)
	loop := b.Here()
	b.Load(2, 1, 0)
	b.ALUI(isa.FnAdd, 2, 2, 3)
	b.Store(1, 0, 2)
	b.AddI(1, 1, 64)
	b.ALUI(isa.FnSub, 10, 10, 1)
	b.BranchI(isa.FnNE, 10, 0, loop)
	b.Halt()
	sys := runOne(t, OoOUnsafe, b.Program())
	if sys.Cores[0].Stats.Committed == 0 {
		t.Fatal("nothing committed")
	}
	for i := 0; i < 20; i++ {
		if got := sys.ReadWord(mem.Addr(0x1000 + i*64)); got != 3 {
			t.Fatalf("slot %d = %d", i, got)
		}
	}
}

// TestLDTChainRelease exercises the Section 4.2 release chain: several
// M-speculative loads commit OoO while one long miss is outstanding; all
// their LDT lockdowns must release when the miss (the SoS load) performs,
// which is observable as the blocked writer completing.
func TestLDTChainRelease(t *testing.T) {
	reader := func() *isa.Program {
		b := isa.NewBuilder("chain-reader")
		b.MovImm(1, 0x10000) // cold pointer line (for a long-latency SoS)
		b.MovImm(2, 0x50000) // hot lines
		b.Load(3, 2, 0)      // warm
		b.Load(4, 2, 64)     // warm
		b.MovImm(7, 1)
		b.MovImm(8, 0x70000)
		b.Store(8, 0, 7) // flag = 1: release the writer
		b.Load(5, 1, 0)  // long miss: the SoS load
		b.Load(6, 2, 0)  // hits: M-speculative, commits OoO
		b.Load(9, 2, 64) // hits: M-speculative, commits OoO
		b.Halt()
		return b.Program()
	}
	writer := func() *isa.Program {
		b := isa.NewBuilder("chain-writer")
		b.MovImm(1, 0x50000)
		b.MovImm(8, 0x70000)
		spin := b.Here()
		b.Load(2, 8, 0)
		b.BranchI(isa.FnEQ, 2, 0, spin)
		b.MovImm(3, 1)
		b.Store(1, 0, 3)  // invalidates the reader's lockdown lines
		b.Store(1, 64, 3) // both committed loads' lines
		b.Halt()
		return b.Program()
	}
	sys := runOne(t, OoOWB, reader(), writer())
	res := sys.Collect()
	if res.SquashInv != 0 {
		t.Fatal("lockdown mode squashed")
	}
	// The run completing proves the chain released (otherwise the
	// writer's stores deadlock behind the WritersBlock).
	if sys.ReadWord(0x50000) != 1 || sys.ReadWord(0x50040) != 1 {
		t.Fatal("writer's stores never performed")
	}
}

// TestReadWordPrecedence: ReadWord must prefer an owner's dirty cache
// copy over the LLC and memory.
func TestReadWordPrecedence(t *testing.T) {
	b := isa.NewBuilder("rw")
	b.MovImm(1, 0x9000)
	b.MovImm(2, 123)
	b.Store(1, 0, 2)
	b.Halt()
	sys := runOne(t, InOrderBase, b.Program())
	if got := sys.ReadWord(0x9000); got != 123 {
		t.Fatalf("ReadWord = %d", got)
	}
	// Memory image may legitimately still be stale.
	_ = sys.Memory.ReadWord(0x9000)
}

// runTinyWindow runs prog alone on a core with a 4-entry ROB, once with
// the idle-skip kernel and once cycle-accurate, and fails unless both
// runs report the same Results. With four window slots, squashed
// instructions hand their slots to the refetched path within a few
// cycles, while their completion events are still queued.
func runTinyWindow(t *testing.T, v Variant, prog *isa.Program) *System {
	t.Helper()
	var runs [2]*System
	for i, accurate := range []bool{false, true} {
		cc := CoreConfig(SLM)
		cc.ROBSize = 4
		cfg := SmallConfig(1, v)
		cfg.CoreOverride = &cc
		cfg.CycleAccurate = accurate
		runs[i] = NewSystem(cfg, []*isa.Program{prog})
		if _, err := runs[i].Run(); err != nil {
			t.Fatalf("%v accurate=%v: %v", v, accurate, err)
		}
	}
	if got, want := runs[0].Collect(), runs[1].Collect(); !reflect.DeepEqual(got, want) {
		t.Errorf("%v: idle-skip results diverge:\ngot:            %+v\ncycle-accurate: %+v", v, got, want)
	}
	return runs[0]
}

// TestSlotReuseAfterBranchSquash: a long-latency Work op and a load sit
// on the wrong path of a mispredicted branch. Their slots go to the
// correct path, whose own long Work ops are still executing when the
// wrong-path Work's completion event fires; that stale event must not
// complete the slot's new occupant.
func TestSlotReuseAfterBranchSquash(t *testing.T) {
	b := isa.NewBuilder("slot-reuse-branch")
	b.MovImm(1, 0x1000)
	b.MovImm(9, 1)
	b.MovImm(6, 5)
	b.MovImm(7, 6)
	b.MovImm(8, 7)
	b.Work(10, 9, 0, 12) // r10 = 1, late enough for the wrong path to issue
	skip := b.NewLabel()
	b.BranchI(isa.FnNE, 10, 0, skip) // taken; predicted not-taken
	b.Work(2, 1, 1, 40)              // wrong path: r2 = 0x2000
	b.Load(3, 1, 0)                  // wrong path
	b.Halt()
	b.Bind(skip)
	b.Work(2, 6, 0, 60) // r2 = 5
	b.Work(3, 7, 0, 60) // r3 = 6
	b.Work(4, 8, 0, 60) // r4 = 7
	b.Load(5, 1, 0)     // r5 = 0 (never written)
	b.Halt()
	for _, v := range Variants {
		sys := runTinyWindow(t, v, b.Program())
		c := sys.Cores[0]
		for r, want := range map[isa.Reg]mem.Word{2: 5, 3: 6, 4: 7, 5: 0} {
			if got := c.Reg(r); got != want {
				t.Errorf("%v: r%d = %d, want %d", v, r, got, want)
			}
		}
		if c.Stats.SquashBranch == 0 {
			t.Errorf("%v: branch never mispredicted — test is vacuous", v)
		}
	}
}

// TestSlotReuseAfterMemDepReplay: a load that bypassed an older store
// with a late address replays, and the squash takes its dependent long
// Work op with it. The refetched path reuses the squashed slots — the
// squashed Work's goes to the Work after it — while the squashed Work's
// completion, carrying the stale value, is still queued.
func TestSlotReuseAfterMemDepReplay(t *testing.T) {
	b := isa.NewBuilder("slot-reuse-memdep")
	b.MovImm(1, 0x2000)
	b.MovImm(2, 5)
	b.Store(1, 0, 2) // [0x2000] = 5
	b.MovImm(9, 0x1000)
	b.MovImm(4, 77)
	b.Work(3, 9, 9, 30) // r3 = 0x2000, late
	b.Store(3, 0, 4)    // [0x2000] = 77, address resolves late
	b.Load(5, 1, 0)     // bypasses the store, reads 5, replays
	b.Work(6, 5, 0, 60) // r6 = r5
	b.Work(7, 4, 4, 60) // r7 = 154
	b.Halt()
	for _, v := range Variants {
		sys := runTinyWindow(t, v, b.Program())
		c := sys.Cores[0]
		for r, want := range map[isa.Reg]mem.Word{5: 77, 6: 77, 7: 154} {
			if got := c.Reg(r); got != want {
				t.Errorf("%v: r%d = %d, want %d", v, r, got, want)
			}
		}
		if c.Stats.SquashMemDep == 0 {
			t.Errorf("%v: load never replayed — test is vacuous", v)
		}
	}
}
