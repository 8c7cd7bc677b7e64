package cpu

import (
	"testing"

	"wbsim/internal/coherence"
	"wbsim/internal/isa"
	"wbsim/internal/mem"
	"wbsim/internal/network"
	"wbsim/internal/sim"
)

// dropPort swallows the PCU's outbound messages: the test answers the
// requests it needs answered itself, at the cycle it chooses.
type dropPort struct{}

func (dropPort) Send(sim.Cycle, *network.Message) {}

// TestLoadPerformsInsideCommit drives a commit call in which committing
// a load performs another: the load's removal reaches onOrderingChange,
// which retries the SoS load, and the retry hits. Out-of-order commit
// must then re-read its load blocker, so the younger instruction that
// the SoS load held back commits in the same call, as the walk from the
// head (scanOracle) has it.
//
// The core runs ooo-safe commit against a PCU whose network the test
// plays, so responses arrive when the test delivers them:
//
//	Work r6 (slower)      ; keeps L1 from the ROB head
//	Work r5 (slow)        ; S's value
//	S:  st [A], r5
//	L1: ld r1, [A]        ; forwards from S once r5 is ready
//	L2: ld r2, [B]
//	X:  addi r3, r0, 1    ; condition 6: waits for L2 to perform
//
// L2 misses while L1 waits, and a tear-off answers it: L2 is unordered,
// so it must retry. Ghost reads (tokens no load holds) then fill the
// MSHR file, so L2's retries find no MSHR when L1 forwards and on the
// next cycle. Before the cycle L1 completes, the test frees one MSHR
// and brings B into the cache with another ghost read. In that cycle
// L1's visit, behind the head, reads the load blocker (L2), and L1's
// commit retries L2, which hits.
func TestLoadPerformsInsideCommit(t *testing.T) {
	const (
		addrA = mem.Addr(0x1000)
		addrB = mem.Addr(0x2000)
		ghost = uint64(1) << 40 // tokens of the test's own reads
	)
	cfg := Config{
		FetchWidth: 4, IssueWidth: 4, CommitWidth: 4,
		IQSize: 16, ROBSize: 32, LQSize: 10, SQSize: 16, SBSize: 16, LDTSize: 32,
		CommitMode:        CommitOoOSafe,
		MispredictPenalty: 7, ALULatency: 1, ForwardLatency: 2,
	}
	r1, r2, r3, r5, r6 := isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(5), isa.Reg(6)
	prog := isa.NewBuilder("perform-in-commit").
		Work(r6, isa.R0, isa.R0, 1000).
		Work(r5, isa.R0, isa.R0, 40).
		Store(isa.R0, mem.Word(addrA), r5).
		Load(r1, isa.R0, mem.Word(addrA)).
		Load(r2, isa.R0, mem.Word(addrB)).
		AddI(r3, isa.R0, 1).
		Halt().
		Program()
	params := coherence.DefaultParams()
	home := func(mem.Line) network.Endpoint { return 1 }
	c := NewCore(0, cfg, prog)
	p := coherence.NewPCU(0, dropPort{}, &params, home, c, coherence.ModeSquash)
	c.AttachPCU(p)
	c.checkScan = true

	var now sim.Cycle
	tick := func() {
		now++
		p.Tick(now)
		c.Tick(now)
	}
	// answer delivers a response for line l from its home bank.
	answer := func(typ coherence.MsgType, l mem.Line) {
		p.Receive(now, &network.Message{Src: 1, Dst: 0, Payload: &coherence.Msg{
			Type: typ, Line: l, Src: 1, Requester: 0, HasData: true}})
	}
	load := func(line mem.Line) *lqEntry {
		for _, e := range c.lq {
			if e.addrValid && e.line == line {
				return e
			}
		}
		return nil
	}
	until := func(what string, done func() bool) {
		for start := now; !done(); tick() {
			if now-start > 200 {
				t.Fatalf("cycle %d: %s never happened", now, what)
			}
		}
	}

	lineA, lineB := mem.LineOf(addrA), mem.LineOf(addrB)
	until("L2 issuing its miss", func() bool { e := load(lineB); return e != nil && e.issued })
	l2 := load(lineB)
	answer(coherence.MsgTearoff, lineB)
	if !l2.needRetry {
		t.Fatal("the tear-off did not leave the unordered L2 waiting to retry")
	}
	var ghosts []mem.Line
	for i := 0; ; i++ {
		line := mem.LineOf(0x100000 + mem.Addr(i)*mem.LineBytes)
		if p.Load(now, ghost+uint64(i), mem.Addr(line)<<mem.LineShift, true).Status == coherence.LoadNoMSHR {
			break
		}
		ghosts = append(ghosts, line)
	}

	var l1 *lqEntry
	until("L1 forwarding", func() bool {
		for _, e := range c.lq {
			if e.line == lineA && e.performed {
				l1 = e
				return true
			}
		}
		return false
	})
	tick() // L2 retries again and finds no MSHR
	if l2.performed || !l2.needRetry || l1.d.state == stCompleted {
		t.Fatalf("cycle %d: want L2 waiting to retry and L1 not completed (L2 performed=%v retry=%v, L1 %v)",
			now, l2.performed, l2.needRetry, l1.d.state)
	}
	answer(coherence.MsgData, ghosts[0])
	if p.Load(now, ghost-1, addrB, true).Status != coherence.LoadPending {
		t.Fatal("the freed MSHR did not take the read of B")
	}
	answer(coherence.MsgData, lineB)
	if c.archValid[r3] {
		t.Fatal("X committed while L2 had not performed")
	}

	tick()
	if !c.archValid[r1] || !l2.performed {
		t.Fatalf("L1 committed=%v, L2 performed=%v: want both", c.archValid[r1], l2.performed)
	}
	if c.archValid[r6] {
		t.Fatal("L1 committed at the ROB head: its visit did not read the load blocker")
	}
	if !c.archValid[r3] || c.archRegs[r3] != 1 {
		t.Error("X did not commit in the call that performed L2")
	}
	if n, bad := c.scanChecks, c.scanMismatches; bad != 0 {
		t.Errorf("%d decisions of %d visits disagree with the scan", bad, n)
	}
}
