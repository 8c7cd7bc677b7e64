package network

import (
	"testing"
	"testing/quick"

	"wbsim/internal/sim"
)

type sink struct {
	got []*Message
	at  []sim.Cycle
}

func (s *sink) Receive(now sim.Cycle, m *Message) {
	s.got = append(s.got, m)
	s.at = append(s.at, now)
}

func build2x2(t *testing.T, jitter int) (*Mesh, []*sink) {
	t.Helper()
	cfg := Config{Width: 2, Height: 2, SwitchLatency: 6, LocalLatency: 2, DataFlits: 5, CtrlFlits: 1, JitterMax: jitter}
	var rng *sim.Rand
	if jitter > 0 {
		rng = sim.NewRand(99)
	}
	m := NewMesh(cfg, rng)
	sinks := make([]*sink, 4)
	for i := range sinks {
		sinks[i] = &sink{}
		m.Attach(Endpoint(i), i, sinks[i])
	}
	return m, sinks
}

func runUntil(m *Mesh, clock *sim.Clock, limit sim.Cycle) {
	for !m.Quiescent() && clock.Now() < limit {
		m.Tick(clock.Advance())
	}
}

func TestDefaultConfigGeometry(t *testing.T) {
	c := DefaultConfig(16)
	if c.Width != 4 || c.Height != 4 {
		t.Fatalf("16 tiles -> %dx%d", c.Width, c.Height)
	}
	c = DefaultConfig(2)
	if c.Width*c.Height < 2 {
		t.Fatalf("2 tiles -> %dx%d", c.Width, c.Height)
	}
	if c.SwitchLatency != 6 || c.DataFlits != 5 || c.CtrlFlits != 1 {
		t.Fatal("Table 6 constants wrong")
	}
}

func TestXYRouteLengths(t *testing.T) {
	m, _ := build2x2(t, 0)
	// Router layout: 0 1 / 2 3. Manhattan distances:
	cases := []struct {
		a, b Endpoint
		hops int
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 1}, {0, 3, 2}, {3, 0, 2}, {1, 2, 2},
	}
	for _, c := range cases {
		if got := m.HopCount(c.a, c.b); got != c.hops {
			t.Errorf("hops(%d,%d) = %d, want %d", c.a, c.b, got, c.hops)
		}
	}
}

func TestDeliveryLatency(t *testing.T) {
	m, sinks := build2x2(t, 0)
	var clock sim.Clock
	// 1-flit control message over 2 hops: head leaves at now+1, each hop
	// adds SwitchLatency; arrival = 1 + 2*6 + (1-1) = cycle 13.
	m.Send(0, &Message{Src: 0, Dst: 3, VNet: VNetResponse, Flits: 1})
	runUntil(m, &clock, 100)
	if len(sinks[3].got) != 1 {
		t.Fatalf("delivered %d", len(sinks[3].got))
	}
	if sinks[3].at[0] != 13 {
		t.Errorf("arrival at %d, want 13", sinks[3].at[0])
	}
	// 5-flit data message adds 4 serialization cycles.
	m2, sinks2 := build2x2(t, 0)
	var clock2 sim.Clock
	m2.Send(0, &Message{Src: 0, Dst: 3, VNet: VNetResponse, Flits: 5})
	runUntil(m2, &clock2, 100)
	if sinks2[3].at[0] != 17 {
		t.Errorf("data arrival at %d, want 17", sinks2[3].at[0])
	}
}

func TestLocalDelivery(t *testing.T) {
	m, sinks := build2x2(t, 0)
	var clock sim.Clock
	m.Send(0, &Message{Src: 0, Dst: 0, VNet: VNetRequest, Flits: 1})
	runUntil(m, &clock, 50)
	if len(sinks[0].got) != 1 || sinks[0].at[0] != 3 { // 1 + LocalLatency(2)
		t.Fatalf("local delivery at %v", sinks[0].at)
	}
}

func TestLinkSerialization(t *testing.T) {
	// Two 5-flit messages over the same link: the second's head waits for
	// the first's tail to clear the link.
	m, sinks := build2x2(t, 0)
	var clock sim.Clock
	m.Send(0, &Message{Src: 0, Dst: 1, VNet: VNetResponse, Flits: 5})
	m.Send(0, &Message{Src: 0, Dst: 1, VNet: VNetResponse, Flits: 5})
	runUntil(m, &clock, 100)
	if len(sinks[1].got) != 2 {
		t.Fatalf("delivered %d", len(sinks[1].got))
	}
	first, second := sinks[1].at[0], sinks[1].at[1]
	if second-first != 5 {
		t.Errorf("serialization gap = %d, want 5 (flits)", second-first)
	}
}

func TestVNetsDoNotInterfere(t *testing.T) {
	// Messages on different virtual networks use separate channel
	// capacity: same-cycle sends arrive with no serialization gap.
	m, sinks := build2x2(t, 0)
	var clock sim.Clock
	m.Send(0, &Message{Src: 0, Dst: 1, VNet: VNetRequest, Flits: 5})
	m.Send(0, &Message{Src: 0, Dst: 1, VNet: VNetResponse, Flits: 5})
	runUntil(m, &clock, 100)
	if sinks[1].at[0] != sinks[1].at[1] {
		t.Errorf("cross-vnet interference: %v", sinks[1].at)
	}
}

func TestSamePairOrderingWithoutJitter(t *testing.T) {
	m, sinks := build2x2(t, 0)
	var clock sim.Clock
	for i := 0; i < 10; i++ {
		msg := &Message{Src: 0, Dst: 3, VNet: VNetRequest, Flits: 1, Payload: i}
		m.Send(sim.Cycle(i), &Message{Src: msg.Src, Dst: msg.Dst, VNet: msg.VNet, Flits: msg.Flits, Payload: msg.Payload})
	}
	runUntil(m, &clock, 500)
	for i, got := range sinks[3].got {
		if got.Payload.(int) != i {
			t.Fatalf("same-pair reordering without jitter: %v at %d", got.Payload, i)
		}
	}
}

// TestSameCycleDeliveryFollowsInjection: messages from different sources
// that land in the same cycle are delivered in the order they were sent,
// and a message that lands earlier is delivered first whatever its send
// order. On the 2x2 mesh a one-hop control message lands 7 cycles after
// its send and a same-router one 3 cycles after.
func TestSameCycleDeliveryFollowsInjection(t *testing.T) {
	m := NewMesh(Config{Width: 2, Height: 2, SwitchLatency: 6, LocalLatency: 2, DataFlits: 5, CtrlFlits: 1}, nil)
	rec := &sink{} // every endpoint's receiver, so it sees the global order
	for i := 0; i < 4; i++ {
		m.Attach(Endpoint(i), i, rec)
	}
	sends := map[sim.Cycle][][2]Endpoint{
		0: {{3, 2}, {0, 1}, {2, 0}, {1, 3}}, // one hop each, on distinct links: land at 7
		3: {{1, 1}},                         // local: lands at 6, sent after the four above
		4: {{2, 2}, {0, 0}},                 // local: land at 7, sent after the four above
	}
	want := []int{4, 0, 1, 2, 3, 5, 6} // payload = global send index
	wantAt := []sim.Cycle{6, 7, 7, 7, 7, 7, 7}
	n := 0
	for now := sim.Cycle(0); now < 20; now++ {
		for _, p := range sends[now] {
			m.Send(now, &Message{Src: p[0], Dst: p[1], VNet: VNetRequest, Flits: 1, Payload: n})
			n++
		}
		m.Tick(now)
	}
	if len(rec.got) != len(want) {
		t.Fatalf("delivered %d messages, want %d", len(rec.got), len(want))
	}
	for i, msg := range rec.got {
		if msg.Payload.(int) != want[i] || rec.at[i] != wantAt[i] {
			t.Fatalf("delivery %d: message %v at cycle %d, want message %d at cycle %d",
				i, msg.Payload, rec.at[i], want[i], wantAt[i])
		}
	}
}

func TestJitterDeterminism(t *testing.T) {
	arrivals := func() []sim.Cycle {
		m, sinks := build2x2(t, 10)
		var clock sim.Clock
		for i := 0; i < 20; i++ {
			m.Send(sim.Cycle(i), &Message{Src: Endpoint(i % 4), Dst: Endpoint((i + 1) % 4), VNet: VNetResponse, Flits: 1})
		}
		runUntil(m, &clock, 1000)
		var at []sim.Cycle
		for _, s := range sinks {
			at = append(at, s.at...)
		}
		return at
	}
	a, b := arrivals(), arrivals()
	if len(a) != len(b) || len(a) != 20 {
		t.Fatalf("delivered %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("jittered runs are not deterministic")
		}
	}
}

func TestStats(t *testing.T) {
	m, _ := build2x2(t, 0)
	var clock sim.Clock
	m.Send(0, &Message{Src: 0, Dst: 3, VNet: VNetRequest, Flits: 5})  // 2 hops
	m.Send(0, &Message{Src: 0, Dst: 1, VNet: VNetResponse, Flits: 1}) // 1 hop
	runUntil(m, &clock, 200)
	st := m.Stats()
	if st.Messages != 2 || st.Flits != 6 {
		t.Fatalf("messages=%d flits=%d", st.Messages, st.Flits)
	}
	if st.FlitHops != 5*2+1*1 {
		t.Fatalf("flit-hops = %d", st.FlitHops)
	}
	if st.PerVNet[VNetRequest] != 5 || st.PerVNet[VNetResponse] != 1 {
		t.Fatalf("per-vnet: %v", st.PerVNet)
	}
}

func TestAttachValidation(t *testing.T) {
	m, _ := build2x2(t, 0)
	for name, fn := range map[string]func(){
		"duplicate":    func() { m.Attach(0, 1, &sink{}) },
		"out-of-range": func() { m.Attach(99, 7, &sink{}) },
		"unattached":   func() { m.Send(0, &Message{Src: 0, Dst: 55, Flits: 1}) },
		"zero-flits":   func() { m.Send(0, &Message{Src: 0, Dst: 1, Flits: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestAllDelivered is the core property: every injected message is
// delivered exactly once, regardless of pattern, and the mesh quiesces.
func TestAllDelivered(t *testing.T) {
	if err := quick.Check(func(pattern []uint8, seed uint64) bool {
		cfg := DefaultConfig(16)
		cfg.JitterMax = 5
		m := NewMesh(cfg, sim.NewRand(seed))
		sinks := make([]*sink, 16)
		for i := range sinks {
			sinks[i] = &sink{}
			m.Attach(Endpoint(i), i, sinks[i])
		}
		var clock sim.Clock
		n := 0
		for _, p := range pattern {
			src := Endpoint(p % 16)
			dst := Endpoint((p >> 4) % 16)
			flits := 1
			if p%3 == 0 {
				flits = 5
			}
			m.Send(clock.Now(), &Message{Src: src, Dst: dst, VNet: VNet(p % 3), Flits: flits, Payload: n})
			n++
			if p%2 == 0 {
				m.Tick(clock.Advance())
			}
		}
		for !m.Quiescent() && clock.Now() < 100000 {
			m.Tick(clock.Advance())
		}
		got := 0
		for _, s := range sinks {
			got += len(s.got)
		}
		return got == n && m.Quiescent()
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestRectangularMesh checks routing on a non-square mesh (2 tiles -> 2x1).
func TestRectangularMesh(t *testing.T) {
	cfg := DefaultConfig(2)
	m := NewMesh(cfg, nil)
	s0, s1 := &sink{}, &sink{}
	m.Attach(0, 0, s0)
	m.Attach(1, 1, s1)
	var clock sim.Clock
	m.Send(0, &Message{Src: 0, Dst: 1, VNet: VNetRequest, Flits: 1})
	m.Send(0, &Message{Src: 1, Dst: 0, VNet: VNetRequest, Flits: 1})
	runUntil(m, &clock, 100)
	if len(s0.got) != 1 || len(s1.got) != 1 {
		t.Fatalf("delivery on 2x1 mesh: %d/%d", len(s0.got), len(s1.got))
	}
	if m.HopCount(0, 1) != 1 {
		t.Fatalf("hops = %d", m.HopCount(0, 1))
	}
}

// TestWideMeshRouting property: on a 8x2 mesh every pair routes with the
// Manhattan hop count.
func TestWideMeshRouting(t *testing.T) {
	cfg := Config{Width: 8, Height: 2, SwitchLatency: 6, LocalLatency: 2, DataFlits: 5, CtrlFlits: 1}
	m := NewMesh(cfg, nil)
	for i := 0; i < 16; i++ {
		m.Attach(Endpoint(i), i, &sink{})
	}
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			ax, ay := a%8, a/8
			bx, by := b%8, b/8
			want := abs(ax-bx) + abs(ay-by)
			if got := m.HopCount(Endpoint(a), Endpoint(b)); got != want {
				t.Fatalf("hops(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
