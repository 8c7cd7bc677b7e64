package coherence

import (
	"testing"

	"wbsim/internal/mem"
	"wbsim/internal/network"
	"wbsim/internal/sim"
)

// capturePort records every message a component sends, for a test that
// delivers them by hand.
type capturePort struct{ sent []*network.Message }

func (c *capturePort) Send(_ sim.Cycle, m *network.Message) { c.sent = append(c.sent, m) }

// TestPendingReplaySurvivesEnvelopeReuse pins what recycling mesh
// envelopes relies on at the directory: a request parked in a line's
// pending queue is a copy, so it replays with its original fields after
// the sender has reused the envelope it arrived in for another message.
func TestPendingReplaySurvivesEnvelopeReuse(t *testing.T) {
	params := testParams()
	const bankEP = network.Endpoint(2)
	out := &capturePort{}
	b := NewBank(bankEP, out, &params, mem.NewMemory(), ModeLockdown)
	in := &capturePort{}       // the cores' side of the mesh
	var envs0, envs1 envelopes // the two cores' free lists
	lineA, lineB := mem.Line(0x40), mem.Line(0x41)
	now := sim.Cycle(1)
	deliver := func() *network.Message {
		t.Helper()
		nm := in.sent[len(in.sent)-1]
		b.Receive(now, nm)
		return nm
	}

	// Core 0's read allocates line A (Fetching); core 1's read of A
	// parks behind it.
	envs0.send(in, now, 0, bankEP, &Msg{Type: MsgGetS, Line: lineA, Requester: 0}, params.DataFlits, params.CtrlFlits)
	deliver()
	envs1.send(in, now, 1, bankEP, &Msg{Type: MsgGetS, Line: lineA, Requester: 1}, params.DataFlits, params.CtrlFlits)
	parked := deliver()
	if dl := b.lines[lineA]; dl == nil || len(dl.pending) != 2 {
		t.Fatalf("line A holds no Fetching entry with both reads parked: %+v", dl)
	}
	// The delivery returned core 1's envelope; its next message reuses
	// it for another request.
	envs1.send(in, now, 1, bankEP, &Msg{Type: MsgGetX, Line: lineB, Requester: 1}, params.DataFlits, params.CtrlFlits)
	if reused := deliver(); reused != parked {
		t.Fatal("core 1's second message did not reuse the envelope of its parked read; the test shows nothing")
	}
	if m, _ := msgOf(parked); m.Type != MsgGetX || m.Line != lineB {
		t.Fatalf("the reused envelope carries %v %v, not the second request", m.Type, m.Line)
	}

	// The fetch lands: core 0's read replays and is granted exclusive;
	// core 1's stays parked behind the Busy entry until core 0 unblocks.
	var grant *Msg
	for ; now < 1000 && grant == nil; now++ {
		b.Tick(now)
		for _, nm := range out.sent {
			if m, _ := msgOf(nm); nm.Dst == 0 && m.Type == MsgData && m.Line == lineA {
				grant = m
			}
		}
	}
	if grant == nil || !grant.Excl {
		t.Fatalf("core 0 got no exclusive grant of line A: %+v", grant)
	}
	envs0.send(in, now, 0, bankEP, &Msg{Type: MsgUnblock, Line: lineA, Requester: 0}, params.DataFlits, params.CtrlFlits)
	deliver()
	out.sent = out.sent[:0]
	for end := now + 100; now < end; now++ {
		b.Tick(now)
	}
	// Core 1's read replays as itself: a forward to the owner, core 0,
	// naming core 1 as the requester of line A.
	for _, nm := range out.sent {
		if m, _ := msgOf(nm); m.Type == MsgFwdGetS {
			if nm.Dst != 0 || m.Line != lineA || m.Requester != 1 {
				t.Fatalf("the parked read replayed as a forward to %d for %v on behalf of %d, want to 0 for %v on behalf of 1",
					nm.Dst, m.Line, m.Requester, lineA)
			}
			return
		}
	}
	t.Fatalf("the parked read never replayed; the bank sent %d messages", len(out.sent))
}

// TestGrantBindsWaitersPastReentrantLoad pins what keeping PCU
// transactions by value relies on: a read grant frees its MSHR before
// binding the waiting loads, and a core that reacts to the first
// binding by issuing loads of another line claims the freed entry and
// reuses its waiter storage. Every original waiter must still bind, with
// its own word of the granted line.
func TestGrantBindsWaitersPastReentrantLoad(t *testing.T) {
	params := testParams()
	fc := newFakeCore()
	home := func(mem.Line) network.Endpoint { return 9 }
	p := NewPCU(0, &capturePort{}, &params, home, fc, ModeLockdown)
	fc.pcu = p
	lineA, lineB := mem.Line(0x40), mem.Line(0x41)
	for i := uint64(1); i <= 3; i++ {
		if r := p.Load(1, i, lineA.Base()+mem.Addr(8*i), false); r.Status != LoadPending {
			t.Fatalf("load %d of a cold line: status %v, want pending", i, r.Status)
		}
	}
	if n := p.mshrs.InUse(); n != 1 {
		t.Fatalf("three loads of one line hold %d MSHRs, want 1", n)
	}
	fc.onLoadDone = func(now sim.Cycle, token uint64) {
		if token != 1 {
			return
		}
		for i := uint64(0); i < 3; i++ {
			p.Load(now, 10+i, lineB.Base()+mem.Addr(8*i), false)
		}
	}
	var data mem.LineData
	for i := range data {
		data[i] = mem.Word(100 + i)
	}
	p.Receive(5, &network.Message{Src: 9, Dst: 0, Payload: &Msg{Type: MsgData, Line: lineA, Src: 9, Requester: 0, Data: data, HasData: true}})

	for i := uint64(1); i <= 3; i++ {
		want := data.Get(lineA.Base() + mem.Addr(8*i))
		if got, ok := fc.loads[i]; !ok || got.value != want || got.tearoff {
			t.Errorf("load %d bound %+v (delivered %v), want value %d", i, got, ok, want)
		}
	}
	for i := uint64(10); i < 13; i++ {
		if _, ok := fc.loads[i]; ok {
			t.Errorf("load %d of line B bound from line A's grant", i)
		}
	}
	ms := p.mshrs.Lookup(lineB)
	if ms == nil || len(ms.Txn.loads) != 3 || ms.Txn.loads[0].token != 10 {
		t.Fatalf("line B's MSHR does not hold the three reentrant loads: %+v", ms)
	}
	if p.mshrs.Lookup(lineA) != nil {
		t.Fatal("line A's MSHR outlived its grant")
	}
}
