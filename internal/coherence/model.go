package coherence

// The model-checking harness. A Model wraps real Bank and PCU instances
// — dispatching on the very same composed table.Spec rows the timed
// simulator interprets, never a re-encoding of the protocol — in an
// untimed nondeterministic environment:
//
//   - The network is an unordered multiset of in-flight messages; any
//     message may be delivered next. This over-approximates every
//     delivery schedule the jittered/perturbed mesh can produce (within
//     a VNet and across VNets alike; the timed network is unordered
//     between endpoint pairs too, so nothing unreachable is added for
//     pairs the mesh keeps ordered — those schedules are simply a
//     subset).
//   - Component event queues (the deferred sends and completions that
//     latency parameters would spread over time) fire in any order via
//     Queue.FireNth, exploring every latency assignment at once.
//   - A tiny in-order model core per PCU issues a fixed load/store
//     program, arms and lifts lockdowns, and retries stores with weak
//     fairness (the retry choice is always enabled), mirroring the
//     fakeCore harness of protocol_test.go.
//
// Simulated time is abstracted away: every call passes now=0 and event
// firing ignores the scheduled cycle. States are compared by canonical
// fingerprint — a sorted serialization of all semantic state, excluding
// stats, cycle stamps, raw LRU ticks, and (at, seq) event keys, none of
// which affect which protocol behaviours remain reachable.
//
// Safety is checked on every transition (single-writer: at most one core
// in E/M per line; read-value monotonicity against a shadow version
// counter; containment of table-row panics) and at terminal states (the
// data-value invariant: every surviving copy equals the last version
// written). Liveness is left to the explorer in internal/coherence/check,
// which needs the full state graph.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"wbsim/internal/coherence/table"
	"wbsim/internal/mem"
	"wbsim/internal/network"
	"wbsim/internal/sim"
)

// ModelConfig sizes the checked system. The geometry is deliberately
// tiny and fixed (single-frame private L2, single-frame LLC bank,
// one-entry eviction buffer, two MSHRs with one reserved): exhaustive
// exploration only closes at small configs, and the small structures are
// exactly the ones whose exhaustion the liveness argument must survive.
type ModelConfig struct {
	Cores      int
	Banks      int
	Lines      int // distinct cache lines the programs touch
	OpsPerCore int // program length; ops alternate load, store
	Lockdowns  int // per-core lockdown budget (ModeLockdown only)
	Mode       Mode

	// PreFixPutRace runs the directory on the pre-fix tables
	// (dirPreFixDelta), which deadlock when an eviction Put overtakes
	// its own transaction's Unblock. Exists to prove the checker finds
	// the PR-5 bug; never set on the simulation path.
	PreFixPutRace bool

	// CorruptWriteRace overrides one directory row — (Exclusive, Write)
	// — to grant exclusivity from the LLC without forwarding to the
	// current owner, the canonical SWMR break. Exists to prove the
	// checker's safety side catches a corrupted table row; never set on
	// the simulation path.
	CorruptWriteRace bool
}

// modelOp is one program step of a model core.
type modelOp struct {
	store bool
	li    int // line index
}

// modelCore is the checker's in-order core: the CoreHooks implementation
// plus the stimulus bookkeeping the choice generator reads.
type modelCore struct {
	m  *Model
	id int

	prog     []modelOp
	pc       int
	waitLoad bool // load issued, LoadDone pending

	locked    []bool // per line index: lockdown armed
	seen      []bool // per line index: lockdown nacked an invalidation
	locksUsed int

	observed []uint64 // per line index: highest version this core has read
}

// Model is one explorable system state: a header over shared
// component snapshots (model_clone.go). Apply and ApplyIndex mutate it
// in place, privatizing the one snapshot a choice touches; explorers
// branch with ModelPool.Child, which shares every snapshot with the
// parent, or replay the choice sequence from a fresh NewModel.
type Model struct {
	cfg    ModelConfig
	params *Params    // immutable after NewModel; shared by every component
	lines  []mem.Line // immutable after NewModel

	// Component snapshots: core i's PCU and model core, bank b.
	ps []*pcuSnap
	bs []*bankSnap

	// net is the in-flight message multiset, in injection order (which
	// is replay-deterministic, so choice indices are stable). The
	// flights are immutable and shared with other models.
	net []*flight

	latest    []uint64 // per line index: last version committed by any store
	violation string   // first safety violation, sticky

	// sym is the lazily computed symmetry group (model_symmetry.go);
	// immutable once built and shared across clones.
	sym *symGroup

	// pool is the worker pool the model privatizes from and shares
	// scratch with (ModelPool.Adopt); nil allocates.
	pool *ModelPool

	// bufs is the transient scratch of a model without a pool; pooled
	// models share their pool's (scratch).
	bufs *scratchBufs //wbsim:uncloned -- scratch, overwritten before every read
}

// scratchBufs holds the buffers a choice enumeration and a fingerprint
// are assembled in. Each is overwritten before it is read and dead once
// the next call that fills it starts, so the models of one pool, which
// one worker uses one at a time, share a single set.
type scratchBufs struct {
	ch           []choice
	fp, sec, sym []byte
	ka           []byte  // key arena of a multiset being sorted
	kaOffs       []int32 // key spans in ka
	sh           []int64 // sharer list being sorted
}

// scratch returns the buffers m's enumerations and fingerprints use.
func (m *Model) scratch() *scratchBufs {
	if m.pool != nil {
		return &m.pool.bufs
	}
	if m.bufs == nil {
		m.bufs = new(scratchBufs)
	}
	return m.bufs
}

// modelPort funnels every component's sends into the model's multiset.
type modelPort struct{ m *Model }

// Send copies the message into a flight of the model's own; the
// components' sends reach put directly (send, messages.go).
func (p modelPort) Send(_ sim.Cycle, env *network.Message) {
	m, _ := msgOf(env)
	p.put(*env, m)
}

// put parks a copy of env and its body m in the in-flight multiset.
func (p modelPort) put(env network.Message, m *Msg) {
	f := p.m.pool.newFlight()
	f.env, f.msg = env, *m
	f.env.Payload = &f.msg
	f.refs.Store(1)
	p.m.net = append(p.m.net, f)
}

// NewModel builds the initial state for cfg. The same cfg always yields
// a behaviourally identical model, which replay-based exploration
// depends on.
func NewModel(cfg ModelConfig) *Model {
	if cfg.Cores < 1 || cfg.Banks < 1 || cfg.Lines < 1 {
		panic("model: cores, banks, and lines must be positive")
	}
	if cfg.OpsPerCore < 1 {
		cfg.OpsPerCore = 2
	}
	m := &Model{cfg: cfg, params: new(Params)}
	*m.params = DefaultParams()
	// Uniform unit latencies: time is abstracted, but distinct delays
	// would only spread the same event set across more (at, seq) keys.
	m.params.L1Latency, m.params.L2Latency = 1, 1
	m.params.LLCLatency, m.params.TagLatency, m.params.MemLatency = 1, 1, 1
	m.params.L1Lines, m.params.L1Ways = 1, 1
	m.params.L2Lines, m.params.L2Ways = 1, 1
	// The LLC bank array is fully associative with room for every
	// modeled line: private-cache conflict evictions (the PR-5 race
	// trigger — an L2 with one frame must evict on every second line)
	// stay in the explored space, while directory-entry evictions would
	// only retry-loop every request behind a transient line and blow up
	// the state count without adding the behaviours under test.
	m.params.LLCLines, m.params.LLCWays = cfg.Lines, cfg.Lines
	m.params.EvictionBuf = 1
	m.params.MSHRs, m.params.ReservedMSHRs = 2, 1

	// Per-line and per-core state is carved from shared backing arrays
	// (full slice expressions, so no carve can grow into its neighbour):
	// construction cost matters because replay and every checker run
	// start here.
	m.lines = make([]mem.Line, cfg.Lines)
	for i := range m.lines {
		m.lines[i] = mem.Line(i + 1)
	}
	words := make([]uint64, (cfg.Cores+1)*cfg.Lines) // latest, then each core's observed
	flags := make([]bool, 2*cfg.Cores*cfg.Lines)     // each core's locked and seen
	progs := make([]modelOp, cfg.Cores*cfg.OpsPerCore)
	nl, nops := cfg.Lines, cfg.OpsPerCore
	m.latest = words[:nl:nl]

	home := func(l mem.Line) network.Endpoint {
		return network.Endpoint(cfg.Cores + int(l)%cfg.Banks)
	}
	port := modelPort{m: m}
	// Each bank backs only the lines homed at it — the only lines it
	// ever reads or writes — so its memory belongs to its snapshot.
	banks := make([]bankSnap, cfg.Banks)
	m.bs = make([]*bankSnap, cfg.Banks)
	for b := range banks {
		s := &banks[b]
		s.refs.Store(1)
		s.memory = mem.NewMemory()
		s.bank = NewBank(network.Endpoint(cfg.Cores+b), port, m.params, s.memory, cfg.Mode)
		if cfg.PreFixPutRace || cfg.CorruptWriteRace {
			machine := alteredMachine(cfg)
			s.bank.machine = machine
			s.bank.cov = machine.NewCoverage()
		}
		m.bs[b] = s
	}
	pcus := make([]pcuSnap, cfg.Cores)
	m.ps = make([]*pcuSnap, cfg.Cores)
	for c := range pcus {
		s := &pcus[c]
		s.refs.Store(1)
		core := &s.core
		core.m, core.id = m, c
		core.observed = words[(c+1)*nl : (c+2)*nl : (c+2)*nl]
		core.locked = flags[2*c*nl : (2*c+1)*nl : (2*c+1)*nl]
		core.seen = flags[(2*c+1)*nl : (2*c+2)*nl : (2*c+2)*nl]
		core.prog = progs[c*nops : (c+1)*nops : (c+1)*nops]
		for i := range core.prog {
			core.prog[i] = modelOp{store: i%2 == 1, li: (c + i) % cfg.Lines}
		}
		s.pcu = NewPCU(network.Endpoint(c), port, m.params, home, core, cfg.Mode)
		m.ps[c] = s
	}
	return m
}

// alteredMachine composes the directory tables with the requested
// checker-only alteration: the pre-fix PutOwned rows (the PR-5 bug) or
// the deliberately corrupted write-grant row (a planted SWMR break).
func alteredMachine(cfg ModelConfig) *table.Machine[dirAction] {
	deltas := []table.Delta[dirAction]{}
	if cfg.Mode == ModeLockdown {
		deltas = append(deltas, dirWBDelta())
	}
	if cfg.Mode == ModeTardis {
		// Tardis kills the Shared state, and both checker alterations
		// touch only owned-line rows, so they compose unchanged.
		deltas = append(deltas, dirTardisDelta())
	}
	if cfg.PreFixPutRace {
		deltas = append(deltas, dirPreFixDelta())
	}
	if cfg.CorruptWriteRace {
		deltas = append(deltas, dirCorruptDelta())
	}
	return table.MustBuild(dirBaseSpec(), deltas...)
}

// dirCorruptDelta deliberately breaks the protocol for checker
// self-tests: a write to an Exclusive line is granted straight from the
// (stale) LLC copy instead of being forwarded to the owner, so two
// cores end up holding the line in E/M at once.
func dirCorruptDelta() table.Delta[dirAction] {
	return table.Delta[dirAction]{
		Name: "corrupt",
		Rows: []table.Row[dirAction]{
			dh(dirStExclusive, dirEvWrite, dirActWriteGrant),
		},
	}
}

// ---------------------------------------------------------------------
// Core hooks
// ---------------------------------------------------------------------

func (c *modelCore) lineIndex(l mem.Line) int {
	for i, ml := range c.m.lines {
		if ml == l {
			return i
		}
	}
	panic(fmt.Sprintf("model: core hook saw unknown line %v", l))
}

// LoadDone binds the pending load and checks the data-value invariant a
// read can witness: values are shadow versions, so a read must never
// return a version newer than the last committed one, nor older than a
// version the same core has already observed (coherence is per-location
// sequential).
func (c *modelCore) LoadDone(_ sim.Cycle, token uint64, value mem.Word, _ bool) {
	li := int(token % 100)
	if !c.waitLoad || c.pc != int(token/100) {
		c.m.fail(fmt.Sprintf("core%d: unsolicited LoadDone token=%d", c.id, token))
		return
	}
	v := uint64(value)
	if v > c.m.latest[li] {
		c.m.fail(fmt.Sprintf("core%d: read version %d of %v, but only %d were ever written",
			c.id, v, c.m.lines[li], c.m.latest[li]))
	}
	if v < c.observed[li] {
		c.m.fail(fmt.Sprintf("core%d: read version %d of %v after having read %d (non-coherent)",
			c.id, v, c.m.lines[li], c.observed[li]))
	}
	c.observed[li] = v
	c.waitLoad = false
	c.pc++
}

func (c *modelCore) AtomicDone(_ sim.Cycle, _ uint64, _ mem.Word) {
	c.m.fail(fmt.Sprintf("core%d: unexpected AtomicDone (the model issues no atomics)", c.id))
}

func (c *modelCore) WritePerformed(_ sim.Cycle, _ mem.Line) {}

func (c *modelCore) OnInvalidation(_ sim.Cycle, l mem.Line) bool {
	li := c.lineIndex(l)
	if c.locked[li] {
		c.seen[li] = true
		return true
	}
	return false
}

func (c *modelCore) HasLockdown(l mem.Line) bool { return c.locked[c.lineIndex(l)] }

func (c *modelCore) OnOwnedEviction(_ sim.Cycle, _ mem.Line) {}

// ---------------------------------------------------------------------
// Transitions
// ---------------------------------------------------------------------

// choice is one enabled transition in compact form. Descriptions are
// rendered on demand (DescribeChoice): exploration replays millions of
// transitions and must not pay for counterexample strings it will
// never print.
type choice struct {
	kind choiceKind
	comp int32 // core or bank index (by kind)
	idx  int32 // message / event / line index (by kind)
}

type choiceKind int8

const (
	chDeliver  choiceKind = iota // deliver net[idx]
	chFireCore                   // fire pcus[comp] pending event idx
	chFireBank                   // fire banks[comp] pending event idx
	chLoad                       // cores[comp] issues its next (load) op
	chStore                      // cores[comp] retries its next (store) op
	chLock                       // cores[comp] arms a lockdown on line idx
	chLift                       // cores[comp] lifts the lockdown on line idx
)

// epName renders an endpoint in core/bank terms.
func (m *Model) epName(ep network.Endpoint) string {
	if int(ep) < m.cfg.Cores {
		return fmt.Sprintf("core%d", int(ep))
	}
	return fmt.Sprintf("bank%d", int(ep)-m.cfg.Cores)
}

// msgDesc renders a protocol message for traces and fingerprints. Only
// word 0 of the payload data is shown: the model reads and writes
// nothing else, so the other words are identically zero.
func (m *Model) msgDesc(pm *Msg, dst network.Endpoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v %v %s->%s", pm.Type, pm.Line, m.epName(pm.Src), m.epName(dst))
	if pm.HasData {
		fmt.Fprintf(&sb, " v%d", uint64(pm.Data[0]))
	}
	if pm.AckCount != 0 {
		fmt.Fprintf(&sb, " acks=%d", pm.AckCount)
	}
	if pm.Excl {
		sb.WriteString(" excl")
	}
	if pm.Eviction {
		sb.WriteString(" ev")
	}
	if pm.Upgrade {
		sb.WriteString(" up")
	}
	if pm.Stale {
		sb.WriteString(" stale")
	}
	if pm.Requester != pm.Src && int(pm.Requester) != int(dst) {
		fmt.Fprintf(&sb, " req=%s", m.epName(pm.Requester))
	}
	return sb.String()
}

// choices enumerates the enabled transitions of the current state, in a
// replay-deterministic order: network deliveries (injection order), then
// component event firings (cores then banks, each queue in (at, seq)
// order), then per-core stimulus. Two states with equal fingerprints
// may enumerate choices in different orders, but always with the same
// multiset of successor states, so fingerprint-based deduplication
// remains sound. The scratch slice is reused across calls.
func (m *Model) choices() []choice {
	sc := m.scratch()
	out := sc.ch[:0]
	for i := range m.net {
		out = append(out, choice{kind: chDeliver, idx: int32(i)})
	}
	for c, s := range m.ps {
		for k := 0; k < s.pcu.events.Len(); k++ {
			out = append(out, choice{kind: chFireCore, comp: int32(c), idx: int32(k)})
		}
	}
	for b, s := range m.bs {
		for k := 0; k < s.bank.events.Len(); k++ {
			out = append(out, choice{kind: chFireBank, comp: int32(b), idx: int32(k)})
		}
	}
	for c, s := range m.ps {
		core := &s.core
		if core.pc < len(core.prog) {
			op := core.prog[core.pc]
			switch {
			case op.store:
				// Always enabled: the store buffer retries every cycle in
				// the timed simulator, so the model's retry is weakly fair
				// by construction. A retry without permission and with the
				// GetX already in flight is a self-loop the explorer
				// deduplicates away.
				out = append(out, choice{kind: chStore, comp: int32(c)})
			case !core.waitLoad:
				out = append(out, choice{kind: chLoad, comp: int32(c)})
			}
		}
		if m.cfg.Mode == ModeLockdown {
			for li := 0; li < m.cfg.Lines; li++ {
				if core.locked[li] {
					out = append(out, choice{kind: chLift, comp: int32(c), idx: int32(li)})
				} else if core.locksUsed < m.cfg.Lockdowns && s.pcu.HasLineShared(m.lines[li]) {
					out = append(out, choice{kind: chLock, comp: int32(c), idx: int32(li)})
				}
			}
		}
	}
	sc.ch = out
	return out
}

// Unchanged reports whether applying ch provably leaves the state as it
// is: a store retry by a core that holds no write permission for the
// line and can issue no request for it, because a miss for the line is
// already in flight or the MSHRs are full (PCU.StoreWrite then only
// re-stamps the PCU's cycle, which the model keeps at 0). Such a retry
// is a self-loop; an explorer may count it without materializing the
// child.
func (m *Model) Unchanged(ch Choice) bool {
	if ch.kind != chStore {
		return false
	}
	s := m.ps[ch.comp]
	p, line := s.pcu, m.lines[s.core.prog[s.core.pc].li]
	return !p.HasWritePermission(line) && (p.mshrs.Lookup(line) != nil || p.mshrs.FullForNormal())
}

// NumChoices counts the enabled transitions.
func (m *Model) NumChoices() int { return len(m.choices()) }

// Choice is the exported view of one enabled transition, opaque to
// callers but compact and storable: the explorer records a state's
// discovery as (parent, Choice) and re-applies the record during
// deterministic replay. A Choice is only meaningful against the exact
// state it was enumerated from (delivery choices index the in-flight
// multiset in injection order, which replay reproduces).
type Choice = choice

// Key packs a choice into a single ordered integer. The explorer uses
// it for deterministic tie-breaking (canonical parent selection) that
// must not depend on goroutine scheduling.
func (c choice) Key() uint64 {
	return uint64(c.kind)<<48 | uint64(uint32(c.comp))<<24 | uint64(uint32(c.idx))
}

// Choices enumerates the enabled transitions. The returned slice is
// reused scratch: it is valid until the next enumeration on this model,
// or on any model of its pool, and callers that keep records must copy
// the elements (they are small values).
func (m *Model) Choices() []Choice { return m.choices() }

// Apply executes one recorded choice with the same panic containment as
// ApplyIndex. The record must come from this state's enumeration (or a
// deterministic replay of it). Only the snapshot the choice names is
// privatized and mutated; snapshots shared with other models are left
// alone.
func (m *Model) Apply(ch Choice) {
	func() {
		defer func() {
			if r := recover(); r != nil {
				m.fail(fmt.Sprintf("panic: %v", r))
			}
		}()
		m.privatize(ch)
		m.applyChoice(ch)
	}()
	if m.violation == "" {
		m.checkSWMR()
	}
}

// DescribeChoice renders one enabled transition for counterexample
// traces. It must be called before the choice is applied.
func (m *Model) DescribeChoice(ch Choice) string {
	switch ch.kind {
	case chDeliver:
		f := m.net[ch.idx]
		return "deliver " + m.msgDesc(&f.msg, f.env.Dst)
	case chFireCore:
		p := m.ps[ch.comp].pcu
		return fmt.Sprintf("fire core%d %s", ch.comp, m.describeEvent(p.events.Nth(int(ch.idx)), p.id))
	case chFireBank:
		b := m.bs[ch.comp].bank
		return fmt.Sprintf("fire bank%d %s", ch.comp, m.describeEvent(b.events.Nth(int(ch.idx)), b.id))
	case chLoad:
		core := &m.ps[ch.comp].core
		return fmt.Sprintf("core%d load %v", ch.comp, m.lines[core.prog[core.pc].li])
	case chStore:
		core := &m.ps[ch.comp].core
		op := core.prog[core.pc]
		return fmt.Sprintf("core%d store %v := v%d", ch.comp, m.lines[op.li], m.latest[op.li]+1)
	case chLock:
		return fmt.Sprintf("core%d lockdown %v", ch.comp, m.lines[ch.idx])
	case chLift:
		return fmt.Sprintf("core%d lift %v", ch.comp, m.lines[ch.idx])
	}
	return "?"
}

// applyChoice executes one transition.
func (m *Model) applyChoice(ch choice) {
	switch ch.kind {
	case chDeliver:
		m.deliver(int(ch.idx))
	case chFireCore:
		p := m.ps[ch.comp].pcu
		p.events.FireNth(int(ch.idx), p.fire)
	case chFireBank:
		b := m.bs[ch.comp].bank
		b.events.FireNth(int(ch.idx), b.fire)
	case chLoad:
		core := &m.ps[ch.comp].core
		m.stimLoad(core, core.prog[core.pc])
	case chStore:
		core := &m.ps[ch.comp].core
		m.stimStore(core, core.prog[core.pc])
	case chLock:
		m.stimLock(&m.ps[ch.comp].core, int(ch.idx))
	case chLift:
		m.stimLift(&m.ps[ch.comp].core, int(ch.idx))
	}
}

// deliver hands net[i] to its destination endpoint. A PCU neither keeps
// nor edits the message, so it reads the shared flight.
func (m *Model) deliver(i int) {
	f := m.net[i]
	m.net = append(m.net[:i], m.net[i+1:]...)
	if dst := int(f.env.Dst); dst < m.cfg.Cores {
		m.ps[dst].pcu.Receive(0, &f.env)
	} else {
		m.deliverToBank(dst-m.cfg.Cores, f)
	}
	m.pool.dropFlight(f)
}

// stimLoad issues the core's next load as the SoS load. A structural
// stall (no MSHR) leaves the state unchanged; a hit binds immediately.
func (m *Model) stimLoad(c *modelCore, op modelOp) {
	line := m.lines[op.li]
	token := uint64(c.pc*100 + op.li)
	res := m.ps[c.id].pcu.Load(0, token, line.Base(), true)
	switch res.Status {
	case LoadHit:
		v := uint64(res.Value)
		if v > m.latest[op.li] {
			m.fail(fmt.Sprintf("core%d: hit version %d of %v, but only %d were ever written",
				c.id, v, line, m.latest[op.li]))
		}
		if v < c.observed[op.li] {
			m.fail(fmt.Sprintf("core%d: hit version %d of %v after having read %d (non-coherent)",
				c.id, v, line, c.observed[op.li]))
		}
		c.observed[op.li] = v
		c.pc++
	case LoadPending:
		c.waitLoad = true
	case LoadNoMSHR:
		// Structural stall; the choice stays enabled.
	}
}

// stimStore retries the core's next store: it commits if the core holds
// write permission and otherwise (re-)requests it.
func (m *Model) stimStore(c *modelCore, op modelOp) {
	line := m.lines[op.li]
	v := m.latest[op.li] + 1
	if m.ps[c.id].pcu.StoreWrite(0, line.Base(), mem.Word(v)) {
		m.latest[op.li] = v
		c.observed[op.li] = v
		c.pc++
	}
}

// stimLock arms a lockdown: the core models an M-speculative load whose
// value bound from a present copy, so later invalidations get nacked.
func (m *Model) stimLock(c *modelCore, li int) {
	c.locked[li] = true
	c.locksUsed++
}

// stimLift lifts a lockdown; if it nacked an invalidation, the deferred
// acknowledgement goes out now (PCU.LockdownLifted).
func (m *Model) stimLift(c *modelCore, li int) {
	c.locked[li] = false
	if c.seen[li] {
		c.seen[li] = false
		m.ps[c.id].pcu.LockdownLifted(0, m.lines[li])
	}
}

// describeEvent renders a pending event of the component at endpoint
// self. An unknown kind would hide state from the fingerprint, so it is
// a hard error.
func (m *Model) describeEvent(ev *deferred, self network.Endpoint) string {
	switch ev.kind {
	case dfPCUSend, dfBankSend:
		return "send " + m.msgDesc(&ev.m, ev.dst)
	case dfBankRetry:
		return "retry " + m.msgDesc(&ev.m, self)
	case dfBankFetchDone:
		return fmt.Sprintf("fetch-done %v", ev.line)
	case dfBankRequeue:
		return "requeue " + m.msgDesc(&ev.m, self)
	case dfBankLease, dfPCULease:
		return fmt.Sprintf("lease-expire %v", ev.line)
	}
	panic(unknownEvent(ev))
}

// unknownEvent is the panic message for a pending event of a kind the
// model cannot render or fingerprint.
func unknownEvent(ev *deferred) string {
	return fmt.Sprintf("model: unfingerprintable pending event kind %d", ev.kind)
}

// ApplyIndex applies the i-th choice of the current state's choice
// enumeration, with panic containment: a protocol panic (an Impossible
// row firing, an invariant check tripping) becomes a safety violation
// instead of tearing the explorer down.
func (m *Model) ApplyIndex(i int) {
	cs := m.choices()
	if i < 0 || i >= len(cs) {
		panic(fmt.Sprintf("model: choice %d of %d", i, len(cs)))
	}
	m.Apply(cs[i])
}

// fail records the first safety violation; later ones are ignored (the
// state is already condemned and possibly half-mutated).
func (m *Model) fail(msg string) {
	if m.violation == "" {
		m.violation = msg
	}
}

// Violation returns the first safety violation seen, or "".
func (m *Model) Violation() string { return m.violation }

// checkSWMR asserts the single-writer invariant after every transition:
// at most one core holds a line in E/M. (Stale shared copies are legal
// mid-flight — a nacked invalidation leaves the sharer readable by
// design — but two simultaneous owners never are.)
func (m *Model) checkSWMR() {
	for li, line := range m.lines {
		owner := -1
		for c, s := range m.ps {
			e := s.pcu.l2.Lookup(line)
			if e != nil && (e.State == stateE || e.State == stateM) {
				if owner >= 0 {
					m.fail(fmt.Sprintf("SWMR: core%d and core%d both own %v", owner, c, m.lines[li]))
					return
				}
				owner = c
			}
		}
	}
}

// ---------------------------------------------------------------------
// Termination and terminal safety
// ---------------------------------------------------------------------

// Terminal reports whether the state is fully drained: every program
// finished, every lockdown lifted, nothing in flight anywhere. Liveness
// is "from every reachable state, some terminal state is reachable";
// states that cannot reach one are deadlocked or livelocked.
func (m *Model) Terminal() bool {
	if len(m.net) > 0 {
		return false
	}
	for _, s := range m.ps {
		c := &s.core
		if c.pc < len(c.prog) || c.waitLoad {
			return false
		}
		for li := range c.locked {
			if c.locked[li] {
				return false
			}
		}
	}
	for _, s := range m.ps {
		if !s.pcu.Quiescent() {
			return false
		}
	}
	for _, s := range m.bs {
		if !s.bank.Quiescent() {
			return false
		}
	}
	return true
}

// CheckTerminal runs the end-state safety checks on a terminal state:
// the banks' structural invariants and the data-value invariant — the
// value a fresh read would see, and every surviving copy, must be the
// last version written. Returns "" if all hold.
func (m *Model) CheckTerminal() (violation string) {
	defer func() {
		if r := recover(); r != nil {
			violation = fmt.Sprintf("terminal invariant panic: %v", r)
		}
	}()
	for _, s := range m.bs {
		s.bank.CheckInvariants()
	}
	for li, line := range m.lines {
		want := m.latest[li]
		ownerVersion := uint64(0)
		hasOwner := false
		for c, s := range m.ps {
			e := s.pcu.l2.Lookup(line)
			if e == nil || e.State == stateInvalid {
				continue
			}
			v := uint64(e.Data.Get(line.Base()))
			if e.State == stateS {
				if v != want {
					return fmt.Sprintf("terminal: core%d holds %v shared at v%d, last write was v%d", c, line, v, want)
				}
				continue
			}
			hasOwner = true
			ownerVersion = v
			if v != want {
				return fmt.Sprintf("terminal: core%d owns %v at v%d, last write was v%d", c, line, v, want)
			}
		}
		_ = ownerVersion
		if !hasOwner {
			// No owner: the visible value is the bank's copy if it has
			// one, else memory.
			v := m.memWord(line)
			if dl := m.bankLine(line); dl != nil && dl.dataValid {
				v = uint64(dl.data.Get(line.Base()))
			}
			if v != want {
				return fmt.Sprintf("terminal: %v reads v%d, last write was v%d", line, v, want)
			}
		}
	}
	return ""
}

// memWord reads line's word 0 from backing memory, which its home bank
// holds.
func (m *Model) memWord(line mem.Line) uint64 {
	return uint64(m.bs[int(line)%m.cfg.Banks].memory.ReadWord(line.Base()))
}

// bankLine finds the live directory entry for line, if any.
func (m *Model) bankLine(line mem.Line) *dirLine {
	for _, s := range m.bs {
		if dl := s.bank.lines[line]; dl != nil {
			return dl
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------

// The fingerprint is a compact binary serialization that a reader who
// knows the config could parse back field by field: every field has a
// fixed shape, every variable-length section (sharer lists, pending
// queues, event and network multisets) starts with its element count,
// optional fields are gated by a flag bit of their record, and the
// ASCII tags that remain appear only where nothing but a tag can (the
// start of a component, an optional record or an event key). So no two
// states can serialize alike, and the bytes can be hashed and compared
// without separators.

// fpBool returns v as bit i of a record's flag byte: each record packs
// its bools into one byte, so a bool costs a bit instead of a byte.
func fpBool(v bool, i uint) byte {
	if v {
		return 1 << i
	}
	return 0
}

// fpEscape introduces an integer that does not fit in one byte.
const fpEscape = 0xFF

// fpInt appends v in a self-delimiting binary form: one byte for 0–254,
// which covers the lines, endpoints, versions and counts a model holds,
// otherwise fpEscape followed by the 8 little-endian bytes of v.
func fpInt(b []byte, v int64) []byte {
	if uint64(v) < fpEscape {
		return append(b, byte(v))
	}
	return binary.LittleEndian.AppendUint64(append(b, fpEscape), uint64(v))
}

// msgKey appends a protocol message's canonical serialization. It is the
// fast (fmt-free) counterpart of msgDesc: exploration fingerprints every
// transition, so this path must not allocate per field.
func (m *Model) msgKey(b []byte, pm *Msg, dst network.Endpoint) []byte {
	b = fpInt(b, int64(pm.Type))
	b = fpInt(b, int64(pm.Line))
	b = fpInt(b, int64(pm.Src))
	b = fpInt(b, int64(dst))
	return msgKeyTail(b, pm, pm.Requester)
}

// msgKeyTail appends the fields after a message's endpoints, with its
// requester given as already renamed (or not) by the caller. The data
// word is present exactly when the HasData flag bit is set.
func msgKeyTail(b []byte, pm *Msg, requester network.Endpoint) []byte {
	b = fpInt(b, int64(requester))
	b = fpInt(b, int64(pm.AckCount))
	b = append(b, fpBool(pm.Excl, 0)|fpBool(pm.Eviction, 1)|fpBool(pm.Upgrade, 2)|
		fpBool(pm.Stale, 3)|fpBool(pm.HasData, 4))
	if pm.HasData {
		b = fpInt(b, int64(pm.Data[0]))
	}
	return b
}

// eventKey appends the canonical serialization of a pending event of
// the component at endpoint self (fast counterpart of describeEvent).
func (m *Model) eventKey(b []byte, ev *deferred, self network.Endpoint) []byte {
	switch ev.kind {
	case dfPCUSend:
		return m.msgKey(append(b, 'p'), &ev.m, ev.dst)
	case dfBankSend:
		return m.msgKey(append(b, 'b'), &ev.m, ev.dst)
	case dfBankRetry:
		return m.msgKey(append(b, 'r'), &ev.m, self)
	case dfBankFetchDone:
		return fpInt(append(b, 'f'), int64(ev.line))
	case dfBankRequeue:
		return m.msgKey(append(b, 'q'), &ev.m, self)
	case dfBankLease:
		return fpInt(append(b, 'L'), int64(ev.line))
	case dfPCULease:
		// The expiry stamp is excluded: the model runs at now=0, so every
		// stamp is the same constant (leaseSpan of zero) and carries no
		// semantic information beyond the timer's presence.
		return fpInt(append(b, 'x'), int64(ev.line))
	}
	panic(unknownEvent(ev))
}

// Fingerprint serializes all semantic state canonically: map contents in
// line order, event multisets and the network multiset sorted, LRU as
// per-set rank. Excluded as non-semantic: stats, cycle stamps (time is
// abstracted), raw LRU ticks, event (at, seq) keys, and the L1 presence
// filter (it only modulates hit latency, never protocol behaviour).
func (m *Model) Fingerprint() string { return string(m.FingerprintBytes()) }

// FingerprintBytes is Fingerprint without the string allocation; the
// returned slice aliases scratch and is valid only until the next
// fingerprint call on the same model, or on any model of its pool. It concatenates the
// snapshots' cached sections (pcuSections, bankSection), so only the
// snapshots this model privatized since they were last encoded, the
// shadow and the network are serialized afresh.
func (m *Model) FingerprintBytes() []byte {
	sc := m.scratch()
	b := sc.fp[:0]
	for _, s := range m.ps {
		sec, mid := m.pcuSections(s)
		b = append(b, sec[:mid]...)
	}
	b = append(b, 'v')
	for li := range m.lines {
		b = fpInt(b, int64(m.latest[li]))
		b = fpInt(b, int64(m.memWord(m.lines[li])))
	}
	for _, s := range m.ps {
		sec, mid := m.pcuSections(s)
		b = append(b, sec[mid:]...)
	}
	for _, s := range m.bs {
		b = append(b, m.bankSection(s)...)
	}
	// Network multiset: serialize each message, then sort the per-message
	// keys so delivery-order-equivalent states coincide.
	b = append(b, 'n')
	kb, offs := sc.ka[:0], sc.kaOffs[:0]
	for _, f := range m.net {
		start := int32(len(kb))
		kb = m.msgKey(kb, &f.msg, f.env.Dst)
		offs = append(offs, start, int32(len(kb)))
	}
	b = appendSortedKeys(b, kb, offs)
	sc.ka, sc.kaOffs = kb, offs
	sc.fp = b
	return b
}

// pcuSections returns core snapshot s's two fingerprint sections — its
// core record, ending at mid, then its PCU record. They are encoded
// once and cached while this model is the snapshot's only holder; a
// snapshot already shared when first encoded (tests that fingerprint a
// state they never branched from the encoder) is encoded into scratch.
func (m *Model) pcuSections(s *pcuSnap) (sec []byte, mid int) {
	if s.fpOK {
		return s.fp, s.fpCore
	}
	sc := m.scratch()
	b, mid := m.pcuKey(sc.sec[:0], s)
	sc.sec = b
	if s.refs.Load() > 1 {
		return b, mid
	}
	s.fp = append(s.fp[:0], b...)
	s.fpCore, s.fpOK = mid, true
	return s.fp, mid
}

// bankSection is pcuSections for a bank snapshot's one section.
func (m *Model) bankSection(s *bankSnap) []byte {
	if s.fpOK {
		return s.fp
	}
	sc := m.scratch()
	b := m.bankKey(sc.sec[:0], s.bank)
	sc.sec = b
	if s.refs.Load() > 1 {
		return b
	}
	s.fp = append(s.fp[:0], b...)
	s.fpOK = true
	return s.fp
}

// pcuKey appends core snapshot s's core record and then its PCU record,
// reporting where the PCU record starts.
func (m *Model) pcuKey(b []byte, s *pcuSnap) ([]byte, int) {
	c := &s.core
	b = append(b, 'c')
	b = fpInt(b, int64(c.pc))
	b = append(b, fpBool(c.waitLoad, 0))
	b = fpInt(b, int64(c.locksUsed))
	for li := range c.locked {
		b = append(b, fpBool(c.locked[li], 0)|fpBool(c.seen[li], 1))
		b = fpInt(b, int64(c.observed[li]))
	}
	mid := len(b)
	b = append(b, 'p')
	for _, line := range m.lines {
		b = pcuLineKey(b, s.pcu, line, int64(line))
	}
	return m.eventMultiset(b, &s.pcu.events, s.pcu.id), mid
}

// bankKey appends one bank's record: its directory entries, eviction
// buffer and early DelayedAcks line by line, then its events.
func (m *Model) bankKey(b []byte, bank *Bank) []byte {
	b = append(b, 'b')
	for _, line := range m.lines {
		if dl := bank.lines[line]; dl != nil {
			b = m.dirLineKey(append(b, 'l'), bank, dl)
		}
		if dl := bank.evbufFind(line); dl != nil {
			b = m.dirLineKey(append(b, 'e'), bank, dl)
		}
		if n := bank.earlyDelayedFor(line); n != 0 {
			b = append(b, 'd')
			b = fpInt(b, int64(line))
			b = fpInt(b, int64(n))
		}
	}
	return m.eventMultiset(b, &bank.events, bank.id)
}

// pcuLineKey appends one PCU's records for line — its L2 entry, MSHRs,
// write-back buffer entry and lease, each tagged and present only if the
// PCU holds one — naming the line id. Renaming changes only that id, so
// both the identity and the mapped fingerprint use it.
func pcuLineKey(b []byte, p *PCU, line mem.Line, id int64) []byte {
	if e := p.l2.Lookup(line); e != nil && e.Valid() {
		b = append(b, 'l')
		b = fpInt(b, id)
		b = fpInt(b, int64(e.State))
		b = append(b, fpBool(e.Dirty, 0))
		b = fpInt(b, int64(e.Data.Get(line.Base())))
		b = fpInt(b, int64(p.l2.LRURank(e)))
	}
	var buf [4]*pcuMSHR
	for _, ms := range p.mshrs.LookupAll(line, buf[:0]) {
		txn := &ms.Txn
		b = append(b, 'm')
		b = fpInt(b, id)
		b = append(b, fpBool(ms.Reserved, 0)|fpBool(txn.write, 1)|fpBool(txn.upgrade, 2)|
			fpBool(txn.lostLine, 3)|fpBool(txn.blocked, 4)|fpBool(txn.atomicOnly, 5)|
			fpBool(txn.gotGrant, 6)|fpBool(txn.hasData, 7))
		b = fpInt(b, int64(txn.acksNeeded))
		b = fpInt(b, int64(txn.acksGot))
		b = fpInt(b, int64(txn.data.Get(line.Base())))
		b = fpInt(b, int64(len(txn.loads)))
		b = fpInt(b, int64(len(txn.atomics)))
	}
	if wb := p.wbFind(line); wb != nil {
		b = append(b, 'w')
		b = fpInt(b, id)
		b = append(b, fpBool(wb.dirty, 0)|fpBool(wb.staleAck, 1)|fpBool(wb.servedFwd, 2))
		b = fpInt(b, int64(wb.data.Get(line.Base())))
	}
	if _, leased := p.leases[line]; leased {
		// Presence only: at now=0 every lease stamp is the same
		// constant, so the stamp itself is non-semantic (the pending
		// expiry timer is fingerprinted as an event).
		b = append(b, 'L')
		b = fpInt(b, id)
	}
	return b
}

// appendSortedKeys appends the keys serialized in kb (as start/end
// offset pairs in offs) to b: their count, then each key in sorted
// order behind its length. Sorting offset spans in an arena instead of
// []string keeps the fingerprint hot path (one call per multiset per
// serialized state) allocation-free.
func appendSortedKeys(b, kb []byte, offs []int32) []byte {
	for i := 2; i < len(offs); i += 2 {
		for j := i; j > 0 && bytes.Compare(kb[offs[j]:offs[j+1]], kb[offs[j-2]:offs[j-1]]) < 0; j -= 2 {
			offs[j], offs[j-2] = offs[j-2], offs[j]
			offs[j+1], offs[j-1] = offs[j-1], offs[j+1]
		}
	}
	b = fpInt(b, int64(len(offs)/2))
	for i := 0; i < len(offs); i += 2 {
		b = fpInt(b, int64(offs[i+1]-offs[i]))
		b = append(b, kb[offs[i]:offs[i+1]]...)
	}
	return b
}

// dirLineFlags packs a directory entry's bools, including whether it
// has a transaction, into its flag byte.
func dirLineFlags(dl *dirLine) byte {
	return fpBool(dl.hasOwner, 0) | fpBool(dl.dataValid, 1) | fpBool(dl.dirty, 2) |
		fpBool(dl.inEvBuf, 3) | fpBool(dl.hasTxn, 4)
}

// dirTxnFlags packs a directory transaction's bools into its flag byte.
func dirTxnFlags(t *dirTxn) byte {
	return fpBool(t.write, 0) | fpBool(t.eviction, 1) | fpBool(t.grantExcl, 2) | fpBool(t.fwd, 3) |
		fpBool(t.gotOwnerData, 4) | fpBool(t.gotUnblock, 5) | fpBool(t.hinted, 6)
}

// dirLineKey serializes one directory entry. The owner and the
// transaction are present exactly when their flag bits are set.
func (m *Model) dirLineKey(b []byte, bank *Bank, dl *dirLine) []byte {
	b = fpInt(b, int64(dl.line))
	b = fpInt(b, int64(dl.kind))
	b = fpInt(b, int64(len(dl.sharers)))
	for _, s := range dl.sharers {
		b = fpInt(b, int64(s))
	}
	b = append(b, dirLineFlags(dl))
	if dl.hasOwner {
		b = fpInt(b, int64(dl.owner))
	}
	b = fpInt(b, int64(dl.data.Get(dl.line.Base())))
	if dl.hasTxn {
		t := &dl.txn
		b = append(b, dirTxnFlags(t))
		b = fpInt(b, int64(t.requester))
		b = fpInt(b, int64(t.oldOwner))
		b = fpInt(b, int64(t.acksPending))
		b = fpInt(b, int64(t.delayedPending))
	}
	b = fpInt(b, int64(len(dl.pending)))
	for i := range dl.pending {
		b = m.msgKey(b, &dl.pending[i], bank.id)
	}
	return b
}

// eventMultiset appends the pending events of the component at endpoint
// self as a sorted multiset of serialized events.
func (m *Model) eventMultiset(b []byte, q *sim.Queue[deferred], self network.Endpoint) []byte {
	b = append(b, 'E')
	sc := m.scratch()
	kb, offs := sc.ka[:0], sc.kaOffs[:0]
	for i := 0; i < q.Len(); i++ {
		start := int32(len(kb))
		kb = m.eventKey(kb, q.Stored(i), self)
		offs = append(offs, start, int32(len(kb)))
	}
	b = appendSortedKeys(b, kb, offs)
	sc.ka, sc.kaOffs = kb, offs
	return b
}

// ---------------------------------------------------------------------
// Diagnosis helpers for counterexample rendering
// ---------------------------------------------------------------------

// SetTrace installs a dispatch observer on every component: each table
// firing is reported as "<component> (State, Event)" — the same
// dispatch-stream format the trace hooks emit in choreography tests.
func (m *Model) SetTrace(hook func(string)) {
	for i, s := range m.bs {
		b := s.bank
		if hook == nil {
			b.trace = nil
			continue
		}
		b.trace = func(st dirState, ev dirEvent) {
			hook(fmt.Sprintf("bank%d (%v, %v)", i, st, ev))
		}
	}
	for i, s := range m.ps {
		p := s.pcu
		if hook == nil {
			p.trace = nil
			continue
		}
		p.trace = func(st pcuState, ev pcuEvent) {
			hook(fmt.Sprintf("core%d (%v, %v)", i, st, ev))
		}
	}
}

// DumpState renders the full system state for hang diagnosis, reusing
// the components' own dump format.
func (m *Model) DumpState() string {
	var sb strings.Builder
	for i, s := range m.ps {
		fmt.Fprintf(&sb, "core%d %s", i, s.pcu.DumpState())
	}
	for i, s := range m.bs {
		fmt.Fprintf(&sb, "bank%d %s", i, s.bank.DumpState())
	}
	for _, f := range m.net {
		fmt.Fprintf(&sb, "in flight: %s\n", m.msgDesc(&f.msg, f.env.Dst))
	}
	for _, s := range m.ps {
		c := &s.core
		fmt.Fprintf(&sb, "core%d pc=%d/%d waitLoad=%v locks=%v\n",
			c.id, c.pc, len(c.prog), c.waitLoad, c.locked)
	}
	return sb.String()
}
