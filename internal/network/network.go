// Package network models the on-chip interconnect: a 2D mesh with
// deterministic X-Y routing, link-level flit serialization, and three
// virtual networks (request, forward, response), following the GARNET
// configuration in the paper (Table 6: 2D mesh, X-Y routing, 5-flit data
// and 1-flit control messages, 6-cycle switch-to-switch time).
//
// The model is latency+contention accurate at link granularity: when a
// message is sent, its head flit walks the X-Y route reserving each link
// in turn; a link that is still busy with an earlier message delays the
// head. This preserves the two properties the paper depends on — messages
// between different endpoint pairs are unordered, and data messages
// serialize over shared links — while remaining fast enough to simulate
// billions of flit-cycles in tests.
//
// The implementation is allocation-free on the per-cycle path: routes are
// precomputed per router pair, endpoint and link state live in flat
// slices indexed by dense ids, the in-flight set is a hand-rolled typed
// heap, and the delivery-perturbation machinery reuses a per-mesh arena.
// Tick allocates nothing in steady state (enforced by a testing.AllocsPerRun
// gate), so simulation throughput is bounded by protocol work, not GC.
package network

import (
	"fmt"

	"wbsim/internal/sim"
)

// VNet identifies a virtual network. Separating request, forward, and
// response traffic into virtual networks is what makes the coherence
// protocol deadlock free at the transport level: a response can never be
// blocked behind a request.
type VNet int

// The three virtual networks used by the coherence protocol.
const (
	VNetRequest  VNet = iota // GetS/GetX/Upgrade/Put from cores to directories
	VNetForward              // Inv/Fwd from directories to cores
	VNetResponse             // Data/Ack/Nack/Unblock — always sinkable
	NumVNets
)

// String names the virtual network.
func (v VNet) String() string {
	switch v {
	case VNetRequest:
		return "req"
	case VNetForward:
		return "fwd"
	case VNetResponse:
		return "resp"
	}
	return fmt.Sprintf("vnet%d", int(v))
}

// Endpoint is a network-attached component (a core's private cache unit or
// an LLC bank/directory slice). Endpoints are dense small integers
// assigned by the system builder.
type Endpoint int

// Message is one coherence message in flight.
type Message struct {
	Src, Dst Endpoint
	VNet     VNet
	Flits    int // 5 for data-bearing messages, 1 for control
	Payload  any

	arrival sim.Cycle
	seq     uint64
}

// Clone returns a copy of the message carrying payload in place of the
// original's, preserving the routing stamps. The model checker uses it
// to clone in-flight messages whose payloads it deep-copies itself.
func (m *Message) Clone(payload any) *Message {
	out := *m
	out.Payload = payload
	return &out
}

// CloneInto copies m into dst with payload substituted, preserving the
// routing stamps. The model checker's pooled clone passes an arena slot
// as dst instead of allocating.
func (m *Message) CloneInto(dst *Message, payload any) {
	*dst = *m
	dst.Payload = payload
}

// Receiver consumes messages delivered to an endpoint. Receivers must
// always accept delivery (endpoint input queues are unbounded); any
// protocol-level back-pressure is expressed by queuing inside the
// receiver, never by refusing delivery, which is how the protocol
// guarantees that invalidations always reach the load queue.
type Receiver interface {
	Receive(now sim.Cycle, msg *Message)
}

// Port accepts outbound messages from a component. The mesh itself is
// the usual Port; the model checker substitutes its own, which parks
// sends in an unordered in-flight multiset.
type Port interface {
	Send(now sim.Cycle, msg *Message)
}

// Faults describes transport-level adversity injected by a fault plan
// (internal/faults). All knobs are deterministic given the mesh RNG seed,
// and all of them only exercise freedom the network contract already
// grants: messages between different endpoint pairs are unordered, and
// per-message latency carries no protocol meaning beyond forward progress.
type Faults struct {
	// SpikeProb is the per-message probability of a delay spike of
	// SpikeCycles extra cycles (a congested or power-gated link).
	SpikeProb   float64
	SpikeCycles int
	// VNetJitter[v] adds a uniform 0..VNetJitter[v] extra cycles to every
	// message on virtual network v, skewing one traffic class (e.g. slow
	// invalidations racing fast responses) independently of the others.
	VNetJitter [NumVNets]int
	// PerturbDelivery randomizes the delivery order among messages that
	// become deliverable on the same cycle. Relative order of messages
	// between the same (src, dst) pair is preserved, so the perturbation
	// stays within the unordered-pairs contract.
	PerturbDelivery bool
}

// Active reports whether any fault knob is set.
func (f Faults) Active() bool {
	if f.SpikeProb > 0 || f.PerturbDelivery {
		return true
	}
	for _, j := range f.VNetJitter {
		if j > 0 {
			return true
		}
	}
	return false
}

// Config describes the mesh geometry and timing.
type Config struct {
	Width, Height int // routers; the paper uses 4x4 for 16 tiles
	SwitchLatency int // cycles per hop (switch-to-switch), paper: 6
	LocalLatency  int // cycles for messages between endpoints on one tile
	DataFlits     int // flits in a data message, paper: 5
	CtrlFlits     int // flits in a control message, paper: 1
	// JitterMax adds a uniform random 0..JitterMax extra cycles to every
	// message. Zero for performance runs; litmus runs use it to explore
	// interleavings. Deterministic given the seed.
	JitterMax int
	// Faults injects deterministic timing adversity (fault plans).
	Faults Faults
}

// DefaultConfig returns the paper's Table 6 network configuration for n
// tiles (n must be a perfect square for a square mesh; 16 in the paper).
func DefaultConfig(tiles int) Config {
	w := 1
	for w*w < tiles {
		w++
	}
	h := (tiles + w - 1) / w
	return Config{
		Width:         w,
		Height:        h,
		SwitchLatency: 6,
		LocalLatency:  2,
		DataFlits:     5,
		CtrlFlits:     1,
	}
}

// Links are identified by a dense id: router x direction x vnet. The four
// directions cover every mesh edge exactly once as "outgoing from".
const (
	dirEast  = iota // +x
	dirWest         // -x
	dirSouth        // +y
	dirNorth        // -y
	numDirs
)

// Stats aggregates traffic accounting for Figure 9.
type Stats struct {
	Messages    uint64
	Flits       uint64
	FlitHops    uint64 // flits x links traversed: the traffic metric
	PerVNet     [NumVNets]uint64
	MaxInFlight int
	Spikes      uint64 // injected delay spikes (fault plans)
}

// pairBucket is one (src, dst) FIFO inside a perturbed delivery batch.
type pairBucket struct {
	msgs []*Message
	head int
}

// Mesh is the interconnect instance.
type Mesh struct {
	cfg Config
	rng *sim.Rand

	// drng is a dedicated stream for the PerturbDelivery fault, forked
	// from rng at construction only when that fault is active. It stays
	// separate from the injection stream (jitter, spikes) because the
	// perturbation draw sequence — and with it every PerturbDelivery run
	// and the chaos goldens — depends on it: folding the draws into rng
	// would interleave them with injection draws and reorder both.
	drng *sim.Rand

	// Flat per-endpoint tables, grown by Attach. routerOf is -1 for ids
	// that were never attached.
	routerOf []int
	recvOf   []Receiver

	// routes[a*numRouters+b] is the precomputed X-Y path from router a to
	// router b as directed link ids (from*numDirs + dir).
	numRouters int
	routes     [][]int32

	// linkFree[link*NumVNets+vnet] is the cycle the channel frees up.
	linkFree []sim.Cycle

	inFlight msgHeap
	seq      uint64
	stats    Stats

	// Reusable arena for perturbed delivery ordering: bucketOf maps a
	// dense pair id (src*len(routerOf)+dst) to its bucket for the current
	// batch (-1 outside a batch), order lists live bucket ids in
	// first-appearance order, pairQ pools the buckets themselves, and
	// batch is the scratch slice the current cycle's deliverables are
	// gathered into.
	bucketOf []int32
	order    []int32
	pairQ    []pairBucket
	batch    []*Message
}

// NewMesh builds a mesh for the given configuration. rng may be nil when
// JitterMax is zero.
func NewMesh(cfg Config, rng *sim.Rand) *Mesh {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("network: mesh dimensions must be positive")
	}
	if (cfg.JitterMax > 0 || cfg.Faults.Active()) && rng == nil {
		panic("network: jitter/faults require an RNG")
	}
	nr := cfg.Width * cfg.Height
	m := &Mesh{
		cfg:        cfg,
		rng:        rng,
		numRouters: nr,
		routes:     make([][]int32, nr*nr),
		linkFree:   make([]sim.Cycle, nr*numDirs*int(NumVNets)),
	}
	for a := 0; a < nr; a++ {
		for b := 0; b < nr; b++ {
			m.routes[a*nr+b] = m.computeRoute(a, b)
		}
	}
	if cfg.Faults.PerturbDelivery {
		m.drng = rng.Fork(0xd317)
	}
	return m
}

// computeRoute returns the directed link ids on the X-Y path a -> b.
func (m *Mesh) computeRoute(a, b int) []int32 {
	if a == b {
		return nil
	}
	var links []int32
	ax, ay := a%m.cfg.Width, a/m.cfg.Width
	bx, by := b%m.cfg.Width, b/m.cfg.Width
	cx, cy := ax, ay
	for cx != bx {
		from := cy*m.cfg.Width + cx
		if bx > cx {
			links = append(links, int32(from*numDirs+dirEast))
			cx++
		} else {
			links = append(links, int32(from*numDirs+dirWest))
			cx--
		}
	}
	for cy != by {
		from := cy*m.cfg.Width + cx
		if by > cy {
			links = append(links, int32(from*numDirs+dirSouth))
			cy++
		} else {
			links = append(links, int32(from*numDirs+dirNorth))
			cy--
		}
	}
	return links
}

// Attach registers an endpoint at a router (0..Width*Height-1) with its
// receiver. It panics on duplicate registration or out-of-range router.
func (m *Mesh) Attach(ep Endpoint, router int, r Receiver) {
	if router < 0 || router >= m.numRouters {
		panic(fmt.Sprintf("network: router %d out of range", router))
	}
	for int(ep) >= len(m.routerOf) {
		m.routerOf = append(m.routerOf, -1)
		m.recvOf = append(m.recvOf, nil)
	}
	if m.routerOf[ep] != -1 {
		panic(fmt.Sprintf("network: endpoint %d attached twice", ep))
	}
	m.routerOf[ep] = router
	m.recvOf[ep] = r
}

// Routers reports the number of routers in the mesh.
func (m *Mesh) Routers() int { return m.numRouters }

// HopCount returns the number of links between two endpoints' routers.
func (m *Mesh) HopCount(a, b Endpoint) int {
	return len(m.routes[m.mustRouter(a)*m.numRouters+m.mustRouter(b)])
}

func (m *Mesh) mustRouter(ep Endpoint) int {
	if int(ep) >= len(m.routerOf) || m.routerOf[ep] == -1 {
		panic(fmt.Sprintf("network: endpoint %d not attached", ep))
	}
	return m.routerOf[ep]
}

// Send injects a message at cycle now. Delivery happens on a later Tick.
func (m *Mesh) Send(now sim.Cycle, msg *Message) {
	if msg.Flits <= 0 {
		panic("network: message with no flits")
	}
	src := m.mustRouter(msg.Src)
	dst := m.mustRouter(msg.Dst)
	path := m.routes[src*m.numRouters+dst]

	flits := sim.Cycle(msg.Flits)
	head := now + 1
	if len(path) == 0 {
		head += sim.Cycle(m.cfg.LocalLatency)
	}
	vnet := int(msg.VNet)
	for _, l := range path {
		slot := int(l)*int(NumVNets) + vnet
		if free := m.linkFree[slot]; free > head {
			head = free
		}
		m.linkFree[slot] = head + flits
		head += sim.Cycle(m.cfg.SwitchLatency)
	}
	arrival := head + flits - 1
	if m.cfg.JitterMax > 0 {
		arrival += sim.Cycle(m.rng.Intn(m.cfg.JitterMax + 1))
	}
	if j := m.cfg.Faults.VNetJitter[msg.VNet]; j > 0 {
		arrival += sim.Cycle(m.rng.Intn(j + 1))
	}
	if p := m.cfg.Faults.SpikeProb; p > 0 && m.rng.Bool(p) {
		arrival += sim.Cycle(m.cfg.Faults.SpikeCycles)
		m.stats.Spikes++
	}

	msg.arrival = arrival
	msg.seq = m.seq
	m.seq++
	m.inFlight.push(msg)

	m.stats.Messages++
	m.stats.Flits += uint64(msg.Flits)
	m.stats.FlitHops += uint64(msg.Flits) * uint64(max(1, len(path)))
	m.stats.PerVNet[msg.VNet] += uint64(msg.Flits)
	if n := len(m.inFlight.h); n > m.stats.MaxInFlight {
		m.stats.MaxInFlight = n
	}
}

// Tick delivers every message whose arrival cycle has been reached, in
// deterministic (arrival, injection) order — or, under the
// PerturbDelivery fault, in a seed-determined random interleaving that
// preserves per-(src, dst)-pair order.
func (m *Mesh) Tick(now sim.Cycle) {
	if m.cfg.Faults.PerturbDelivery {
		m.tickPerturbed(now)
		return
	}
	for len(m.inFlight.h) > 0 {
		next := m.inFlight.h[0]
		if next.arrival > now {
			return
		}
		m.inFlight.pop()
		m.deliver(now, next)
	}
}

// NextEventCycle reports the cycle the earliest in-flight message lands.
// ok is false when the mesh is quiescent.
func (m *Mesh) NextEventCycle() (at sim.Cycle, ok bool) {
	if len(m.inFlight.h) == 0 {
		return 0, false
	}
	return m.inFlight.h[0].arrival, true
}

// tickPerturbed gathers the cycle's deliverable batch, reorders it under
// the PerturbDelivery fault, and delivers it. Deliveries cannot extend
// the batch: a Receive may Send, but new messages always arrive at a
// strictly later cycle, so the gather scratch is never touched
// reentrantly.
func (m *Mesh) tickPerturbed(now sim.Cycle) {
	if len(m.inFlight.h) == 0 || m.inFlight.h[0].arrival > now {
		return
	}
	for len(m.inFlight.h) > 0 && m.inFlight.h[0].arrival <= now {
		msg := m.inFlight.h[0]
		m.inFlight.pop()
		m.batch = append(m.batch, msg)
	}
	m.orderPerturbed(m.batch)
	for i, msg := range m.batch {
		m.deliver(now, msg)
		m.batch[i] = nil
	}
	m.batch = m.batch[:0]
}

// orderPerturbed reorders one same-cycle delivery batch in place under
// the PerturbDelivery fault (no-op when the fault is off). batch must be
// in heap-pop (arrival, injection) order. Messages between the same
// endpoint pair keep their relative order — each pair's bucket is
// consumed front-first — so only the ordering freedom the mesh never
// promised (between different pairs) is exercised. One drng.Intn is
// drawn per delivery.
func (m *Mesh) orderPerturbed(batch []*Message) {
	if !m.cfg.Faults.PerturbDelivery || len(batch) == 0 {
		return
	}
	// The dense pair id space is len(routerOf)^2; (re)size lazily so late
	// Attach calls are honoured.
	nep := len(m.routerOf)
	if len(m.bucketOf) < nep*nep {
		m.bucketOf = make([]int32, nep*nep)
		for i := range m.bucketOf {
			m.bucketOf[i] = -1
		}
	}
	// Group the batch into per-pair FIFOs in batch order.
	nBuckets := 0
	for _, msg := range batch {
		p := int(msg.Src)*nep + int(msg.Dst)
		bi := m.bucketOf[p]
		if bi == -1 {
			if nBuckets == len(m.pairQ) {
				m.pairQ = append(m.pairQ, pairBucket{})
			}
			bi = int32(nBuckets)
			nBuckets++
			m.bucketOf[p] = bi
			m.order = append(m.order, bi)
		}
		b := &m.pairQ[bi]
		b.msgs = append(b.msgs, msg)
	}
	// Emit: pick a random live pair, pop its front. When a pair runs
	// dry it is swap-removed from order, mirroring the original
	// order[i] = order[len-1] semantics so the RNG->pair mapping (and
	// hence every perturbed run) is unchanged.
	out := 0
	for len(m.order) > 0 {
		i := m.drng.Intn(len(m.order))
		b := &m.pairQ[m.order[i]]
		msg := b.msgs[b.head]
		b.head++
		if b.head == len(b.msgs) {
			m.order[i] = m.order[len(m.order)-1]
			m.order = m.order[:len(m.order)-1]
		}
		batch[out] = msg
		out++
	}
	// Reset the arena: clear message references (so delivered messages
	// can be collected), rewind buckets, and un-map the pair ids.
	for bi := 0; bi < nBuckets; bi++ {
		b := &m.pairQ[bi]
		first := b.msgs[0]
		clear(b.msgs)
		b.msgs = b.msgs[:0]
		b.head = 0
		m.bucketOf[int(first.Src)*nep+int(first.Dst)] = -1
	}
	m.order = m.order[:0]
}

// deliver hands a message to its endpoint's receiver.
func (m *Mesh) deliver(now sim.Cycle, msg *Message) {
	if int(msg.Dst) >= len(m.recvOf) || m.recvOf[msg.Dst] == nil {
		panic(fmt.Sprintf("network: message to unattached endpoint %d", msg.Dst))
	}
	m.recvOf[msg.Dst].Receive(now, msg)
}

// Quiescent reports whether no messages are in flight.
func (m *Mesh) Quiescent() bool { return len(m.inFlight.h) == 0 }

// InFlightCensus counts the messages currently in flight on each virtual
// network (for hang reports).
func (m *Mesh) InFlightCensus() (perVNet [NumVNets]int, total int) {
	for _, msg := range m.inFlight.h {
		perVNet[msg.VNet]++
		total++
	}
	return perVNet, total
}

// Stats returns a copy of the traffic statistics.
func (m *Mesh) Stats() Stats { return m.stats }

// msgHeap orders messages by (arrival, seq) for deterministic delivery.
// Hand-rolled (not container/heap) so push/pop never box through `any`:
// Mesh.Tick must not allocate. The (arrival, seq) key is unique per
// message, so pop order is independent of heap layout.
type msgHeap struct {
	h []*Message
}

func (q *msgHeap) less(i, j int) bool {
	if q.h[i].arrival != q.h[j].arrival {
		return q.h[i].arrival < q.h[j].arrival
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *msgHeap) push(msg *Message) {
	q.h = append(q.h, msg)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// pop removes the root, keeping the backing array for reuse.
func (q *msgHeap) pop() {
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && q.less(right, left) {
			least = right
		}
		if !q.less(least, i) {
			return
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
