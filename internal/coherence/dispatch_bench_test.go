package coherence

import (
	"testing"

	"wbsim/internal/mem"
)

// BenchmarkDirDispatch measures the directory/PCU message-dispatch hot
// path end to end: a write-invalidate / 3-hop-read ping-pong over a warm
// working set, so every iteration crosses the bank's GetX/GetS/Unblock
// handling and the PCU's Inv/FwdGetS/FwdGetX/Data handling. `make
// bench-dir` prints its timing.
func BenchmarkDirDispatch(b *testing.B) {
	benchDispatchPingPong(b, newRig(b, 4, testParams()))
}

// TestDirDispatchAllocBudget fails when BenchmarkDirDispatch allocates
// more than 45 times or 3238 bytes per op: the 41 allocations and 2944 B
// measured on the nested-switch dispatch that the table-driven engine
// replaced, plus 10%. Allocation counts are exact, so unlike ns/op they
// can gate every change.
func TestDirDispatchAllocBudget(t *testing.T) {
	res := testing.Benchmark(BenchmarkDirDispatch)
	if res.N == 0 {
		t.Fatal("BenchmarkDirDispatch did not run")
	}
	if allocs, bytes := res.AllocsPerOp(), res.AllocedBytesPerOp(); allocs > 45 || bytes > 3238 {
		t.Errorf("dispatch ping-pong: %d allocs/op, %d B/op; budget 45 allocs/op, 3238 B/op", allocs, bytes)
	}
}

// benchDispatchPingPong is the shared write-invalidate / 3-hop-read
// workload: warm the working set so measured iterations cross the
// sharing paths, then ping-pong ownership between cores.
func benchDispatchPingPong(b *testing.B, r *rig) {
	addrs := make([]mem.Addr, 8)
	for i := range addrs {
		addrs[i] = mem.Addr((i + 1) * 0x1000)
		r.memory.WriteWord(addrs[i], 1)
	}
	// Warm: every core reads every line once, so measured iterations
	// exercise invalidations and owner forwards rather than cold fetches.
	tok := uint64(1)
	for _, a := range addrs {
		for c := range r.pcus {
			r.pcus[c].Load(r.now(), tok, a, true)
			tok++
			r.settle()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		w := r.pcus[i%len(r.pcus)]
		for !w.StoreWrite(r.now(), a, mem.Word(i)) {
			r.settle()
		}
		r.pcus[(i+1)%len(r.pcus)].Load(r.now(), tok, a, true)
		tok++
		r.settle()
	}
}

// BenchmarkDirDispatchProtocols runs the ping-pong workload once per
// registered protocol, so `make bench-dir` reports a dispatch cost row
// for every registry entry (a newly registered protocol appears with no
// benchmark edits). Note tardis ns/op includes the cycles spent waiting
// out read leases — that wait is the protocol's write cost, not harness
// overhead.
func BenchmarkDirDispatchProtocols(b *testing.B) {
	for _, proto := range Protocols() {
		b.Run(proto.Name, func(b *testing.B) {
			params := testParams()
			params.NonSilentSharedEvictions = proto.NonSilent
			benchDispatchPingPong(b, newRigMode(b, 4, params, proto.Mode))
		})
	}
}

// BenchmarkDirDispatchWB measures the WritersBlock choreography: each
// iteration blocks a write on a lockdown (Nack, WB entry), serves a
// concurrent read a tear-off, then lifts the lockdown (DelayedAck,
// RedirAck, Unblock) — the Figure 3.B/4 hot path.
func BenchmarkDirDispatchWB(b *testing.B) {
	r := newRig(b, 3, testParams())
	addr := mem.Addr(0x5000)
	line := mem.LineOf(addr)
	r.memory.WriteWord(addr, 1)
	tok := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.pcus[1].Load(r.now(), tok, addr, true)
		tok++
		r.settle()
		r.cores[1].lockLines[line] = true
		r.pcus[0].StoreWrite(r.now(), addr, mem.Word(i))
		r.run(400)
		r.pcus[2].Load(r.now(), tok, addr, true)
		tok++
		r.run(400)
		r.cores[1].lift(r.now(), line)
		r.settle()
		for !r.pcus[0].StoreWrite(r.now(), addr, mem.Word(i)) {
			r.settle()
		}
	}
}
