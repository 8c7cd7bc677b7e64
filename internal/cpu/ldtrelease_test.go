package cpu

import (
	"testing"

	"wbsim/internal/coherence"
	"wbsim/internal/isa"
	"wbsim/internal/mem"
	"wbsim/internal/network"
	"wbsim/internal/sim"
)

// TestLDTNestedRelease checks when an exported lockdown lifts if the load
// that was holding it back commits out of order too:
//
//	L1: ld r1, [A]   ; misses until the end
//	L2: ld r2, [B]   ; misses, performs second, commits out of order
//	L3: ld r3, [C]   ; performs first, commits out of order
//
// L3's LDT entry must stay live after L2, the nearest older load, has
// performed and committed, because L1 is still unperformed: L3 is not
// ordered until L1 performs. It must free in the very call that performs
// L1, together with L2's entry.
//
// The core runs ooo-wb commit against a PCU whose network the test plays
// (dropPort), so each load performs when the test delivers its line.
func TestLDTNestedRelease(t *testing.T) {
	const addrA, addrB, addrC = mem.Addr(0x1000), mem.Addr(0x2000), mem.Addr(0x3000)
	cfg := Config{
		FetchWidth: 4, IssueWidth: 4, CommitWidth: 4,
		IQSize: 16, ROBSize: 32, LQSize: 10, SQSize: 16, SBSize: 16, LDTSize: 32,
		CommitMode: CommitOoOWB, Lockdown: true,
		MispredictPenalty: 7, ALULatency: 1, ForwardLatency: 2,
	}
	r1, r2, r3 := isa.Reg(1), isa.Reg(2), isa.Reg(3)
	prog := isa.NewBuilder("nested-release").
		Load(r1, isa.R0, mem.Word(addrA)).
		Load(r2, isa.R0, mem.Word(addrB)).
		Load(r3, isa.R0, mem.Word(addrC)).
		Halt().
		Program()
	params := coherence.DefaultParams()
	home := func(mem.Line) network.Endpoint { return 1 }
	c := NewCore(0, cfg, prog)
	p := coherence.NewPCU(0, dropPort{}, &params, home, c, coherence.ModeLockdown)
	c.AttachPCU(p)

	var now sim.Cycle
	tick := func() {
		now++
		p.Tick(now)
		c.Tick(now)
	}
	answer := func(a mem.Addr) {
		p.Receive(now, &network.Message{Src: 1, Dst: 0, Payload: &coherence.Msg{
			Type: coherence.MsgData, Line: mem.LineOf(a), Src: 1, Requester: 0, HasData: true}})
	}
	until := func(what string, done func() bool) {
		for start := now; !done(); tick() {
			if now-start > 200 {
				t.Fatalf("cycle %d: %s never happened", now, what)
			}
		}
	}
	live := func(seq uint64) bool {
		for _, l := range c.ord.LDT() {
			if l.Seq == seq {
				return true
			}
		}
		return false
	}

	until("all three loads issuing their misses", func() bool {
		if len(c.ord.Loads()) != 3 {
			return false
		}
		for i := range c.ord.Loads() {
			if !c.loadSlot(i).lq.issued {
				return false
			}
		}
		return true
	})
	l2, l3 := c.ord.Loads()[1].Seq, c.ord.Loads()[2].Seq

	answer(addrC)
	until("L3 committing out of order", func() bool { return c.archValid[r3] })
	if !live(l3) {
		t.Fatalf("cycle %d: L3 committed while L1 and L2 miss, but exported no LDT entry (ldt %v)", now, c.ord.LDT())
	}

	answer(addrB)
	until("L2 committing out of order", func() bool { return c.archValid[r2] })
	for i := 0; i < 20; i++ {
		if !live(l3) || !live(l2) {
			t.Fatalf("cycle %d: an LDT entry freed while L1 has not performed (ldt %v, L2 seq %d, L3 seq %d)",
				now, c.ord.LDT(), l2, l3)
		}
		tick()
	}
	if c.archValid[r1] {
		t.Fatal("L1 committed without its line")
	}

	answer(addrA)
	if len(c.ord.LDT()) != 0 {
		t.Fatalf("cycle %d: L1 performed, but LDT entries %v are still live", now, c.ord.LDT())
	}
	until("the core finishing", c.Done)
	c.CheckInvariants()
	if c.Stats.LDTExports != 2 {
		t.Errorf("LDTExports = %d, want 2 (L2 and L3)", c.Stats.LDTExports)
	}
}
