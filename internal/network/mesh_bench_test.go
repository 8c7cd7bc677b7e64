package network

import (
	"testing"

	"wbsim/internal/sim"
)

// recycler is a benchmark receiver that returns delivered messages to a
// free list, so a steady-state benchmark reuses Message structs instead
// of measuring the test's own allocation.
type recycler struct {
	free []*Message
}

func (r *recycler) Receive(now sim.Cycle, m *Message) {
	m.Payload = nil
	r.free = append(r.free, m)
}

func (r *recycler) take() *Message {
	if n := len(r.free); n > 0 {
		m := r.free[n-1]
		r.free = r.free[:n-1]
		return m
	}
	return &Message{}
}

// benchMesh builds a 4x4 mesh (the paper's geometry) with one recycling
// endpoint per router, under faults f.
func benchMesh(f Faults) (*Mesh, *recycler) {
	cfg := DefaultConfig(16)
	cfg.Faults = f
	var rng *sim.Rand
	if f.Active() {
		rng = sim.NewRand(1)
	}
	m := NewMesh(cfg, rng)
	rec := &recycler{}
	for i := 0; i < 16; i++ {
		m.Attach(Endpoint(i), i, rec)
	}
	return m, rec
}

// loadedCycle injects k messages (round-robin endpoint pairs, alternating
// control and data) and runs one mesh cycle.
func loadedCycle(m *Mesh, rec *recycler, now sim.Cycle, k int) {
	for j := 0; j < k; j++ {
		msg := rec.take()
		msg.Src = Endpoint((int(now) + j) % 16)
		msg.Dst = Endpoint((int(now) + j*5 + 3) % 16)
		msg.VNet = VNet(j % int(NumVNets))
		if j%2 == 0 {
			msg.Flits = 1
		} else {
			msg.Flits = 5
		}
		m.Send(now, msg)
	}
	m.Tick(now)
}

// BenchmarkMeshTickLoaded measures one mesh cycle under sustained load:
// four new messages per cycle with deliveries recycled, the traffic shape
// of a busy coherence run. One iteration is one simulated network cycle.
func BenchmarkMeshTickLoaded(b *testing.B) {
	m, rec := benchMesh(Faults{})
	now := sim.Cycle(0)
	for i := 0; i < 4096; i++ { // warm arena, heap, and free list
		now++
		loadedCycle(m, rec, now, 4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		loadedCycle(m, rec, now, 4)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "net-cycles/sec")
}

// BenchmarkMeshTickQuiescent measures the cost the mesh charges a cycle
// in which it has nothing to do — the case the idle-skipping scheduler
// makes common, and the reason Tick must be near-free when idle.
func BenchmarkMeshTickQuiescent(b *testing.B) {
	m, _ := benchMesh(Faults{})
	if !m.Quiescent() {
		b.Fatal("mesh not quiescent")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tick(sim.Cycle(i))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "net-cycles/sec")
}

// TestMeshTickZeroAlloc pins the zero-allocation invariant of the mesh
// kernel: once the delivery arena and queues are warm, neither Send nor
// Tick may allocate, with or without the PerturbDelivery fault (whose
// Tick gathers each cycle's batch before reordering it). A regression
// here (a per-tick map, sorting closure, or batch slice) reintroduces
// exactly the garbage the arena removed.
func TestMeshTickZeroAlloc(t *testing.T) {
	now := sim.Cycle(0)
	for _, f := range []Faults{{}, {PerturbDelivery: true}} {
		m, rec := benchMesh(f)
		warm := func() {
			now++
			loadedCycle(m, rec, now, 4)
		}
		for i := 0; i < 4096; i++ {
			warm()
		}
		if f.PerturbDelivery && cap(m.batch) < 2 {
			t.Fatal("perturbed mesh never gathered a batch of two messages")
		}
		if allocs := testing.AllocsPerRun(512, warm); allocs != 0 {
			t.Fatalf("loaded mesh cycle (perturbed=%v) allocates %.1f objects/cycle, want 0", f.PerturbDelivery, allocs)
		}
	}

	quiet := NewMesh(DefaultConfig(16), nil)
	if allocs := testing.AllocsPerRun(512, func() {
		now++
		quiet.Tick(now)
	}); allocs != 0 {
		t.Fatalf("quiescent Mesh.Tick allocates %.1f objects/cycle, want 0", allocs)
	}
}
