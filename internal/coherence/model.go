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
//     EventQueue.FireNth, exploring every latency assignment at once.
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
	"fmt"
	"strconv"
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

// Model is one explorable system state. It is mutated in place by
// ApplyIndex; explorers that need to branch replay the choice sequence
// from a fresh NewModel (there is no snapshot/undo).
type Model struct {
	cfg    ModelConfig
	params Params
	memory *mem.Memory
	pcus   []*PCU
	banks  []*Bank
	cores  []*modelCore
	lines  []mem.Line

	// net is the in-flight message multiset, in injection order (which
	// is replay-deterministic, so choice indices are stable).
	net []*network.Message

	latest    []uint64 // per line index: last version committed by any store
	violation string   // first safety violation, sticky

	// sym is the lazily computed symmetry group (model_symmetry.go);
	// immutable once built and shared across clones.
	sym *symGroup

	// Reused scratch buffers (enumeration, fingerprint assembly).
	chScratch  []choice //wbsim:uncloned -- scratch, overwritten before every read
	fpScratch  []byte   //wbsim:uncloned -- scratch, overwritten before every read
	kaBuf      []byte   //wbsim:uncloned -- key arena, rebuilt per fingerprint
	kaOffs     []int32  //wbsim:uncloned -- key arena spans, rebuilt per fingerprint
	symScratch []byte   //wbsim:uncloned -- scratch, overwritten before every read
	shScratch  []int64  //wbsim:uncloned -- scratch, overwritten before every read

	// Arenas backing this model's per-state heap objects (in-flight
	// messages, directory lines, transactions, network envelopes).
	// CloneInto resets and refills them, so a pooled model's
	// steady-state clone performs no heap allocation for these. Safe
	// because no model ever references another model's objects:
	// Clone/CloneInto deep-copy every such pointer (model_clone.go).
	msgArena  []Msg
	dlArena   []dirLine
	dtxnArena []dirTxn
	ptxnArena []pcuTxn
	netArena  []network.Message
}

// modelPort funnels every component's sends into the model's multiset.
type modelPort struct{ m *Model }

func (p modelPort) Send(_ sim.Cycle, msg *network.Message) {
	p.m.net = append(p.m.net, msg)
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
	m := &Model{cfg: cfg, memory: mem.NewMemory()}
	m.params = DefaultParams()
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

	for i := 0; i < cfg.Lines; i++ {
		m.lines = append(m.lines, mem.Line(i+1))
	}
	m.latest = make([]uint64, cfg.Lines)

	home := func(l mem.Line) network.Endpoint {
		return network.Endpoint(cfg.Cores + int(l)%cfg.Banks)
	}
	port := modelPort{m: m}
	for b := 0; b < cfg.Banks; b++ {
		bank := NewBank(network.Endpoint(cfg.Cores+b), port, &m.params, m.memory, cfg.Mode)
		if cfg.PreFixPutRace || cfg.CorruptWriteRace {
			machine := alteredMachine(cfg)
			bank.machine = machine
			bank.cov = machine.NewCoverage()
		}
		m.banks = append(m.banks, bank)
	}
	for c := 0; c < cfg.Cores; c++ {
		core := &modelCore{
			m:        m,
			id:       c,
			locked:   make([]bool, cfg.Lines),
			seen:     make([]bool, cfg.Lines),
			observed: make([]uint64, cfg.Lines),
		}
		for i := 0; i < cfg.OpsPerCore; i++ {
			core.prog = append(core.prog, modelOp{store: i%2 == 1, li: (c + i) % cfg.Lines})
		}
		m.cores = append(m.cores, core)
		m.pcus = append(m.pcus, NewPCU(network.Endpoint(c), port, &m.params, home, core, cfg.Mode))
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
// rendered on demand (ChoiceDesc): exploration replays millions of
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
	out := m.chScratch[:0]
	for i := range m.net {
		out = append(out, choice{kind: chDeliver, idx: int32(i)})
	}
	for c, p := range m.pcus {
		for k := 0; k < p.events.Len(); k++ {
			out = append(out, choice{kind: chFireCore, comp: int32(c), idx: int32(k)})
		}
	}
	for b, bank := range m.banks {
		for k := 0; k < bank.events.Len(); k++ {
			out = append(out, choice{kind: chFireBank, comp: int32(b), idx: int32(k)})
		}
	}
	for c, core := range m.cores {
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
				} else if core.locksUsed < m.cfg.Lockdowns && m.pcus[c].HasLineShared(m.lines[li]) {
					out = append(out, choice{kind: chLock, comp: int32(c), idx: int32(li)})
				}
			}
		}
	}
	m.chScratch = out
	return out
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

// Choices enumerates the enabled transitions. The returned slice is the
// model's reused scratch buffer: it is valid until the next enumeration
// on this model, and callers that keep records must copy the elements
// (they are small values).
func (m *Model) Choices() []Choice { return m.choices() }

// Apply executes one recorded choice with the same panic containment as
// ApplyIndex. The record must come from this state's enumeration (or a
// deterministic replay of it).
func (m *Model) Apply(ch Choice) {
	func() {
		defer func() {
			if r := recover(); r != nil {
				m.fail(fmt.Sprintf("panic: %v", r))
			}
		}()
		m.applyChoice(ch)
	}()
	if m.violation == "" {
		m.checkSWMR()
	}
}

// IsDelivery reports whether ch delivers an in-flight network message
// (the only choice kind the partial-order reduction considers).
func (m *Model) IsDelivery(ch Choice) bool { return ch.kind == chDeliver }

// ChoiceDesc renders the i-th enabled transition for counterexample
// traces. It must be called before the choice is applied.
func (m *Model) ChoiceDesc(i int) string {
	cs := m.choices()
	if i < 0 || i >= len(cs) {
		return fmt.Sprintf("choice %d of %d", i, len(cs))
	}
	return m.DescribeChoice(cs[i])
}

// DescribeChoice renders one enabled transition for counterexample
// traces. It must be called before the choice is applied.
func (m *Model) DescribeChoice(ch Choice) string {
	switch ch.kind {
	case chDeliver:
		nm := m.net[ch.idx]
		return "deliver " + m.msgDesc(nm.Payload.(*Msg), nm.Dst)
	case chFireCore:
		pe := m.pcus[ch.comp].events.Pending()[ch.idx]
		return fmt.Sprintf("fire core%d %s", ch.comp, m.describeEvent(pe.Arg))
	case chFireBank:
		pe := m.banks[ch.comp].events.Pending()[ch.idx]
		return fmt.Sprintf("fire bank%d %s", ch.comp, m.describeEvent(pe.Arg))
	case chLoad:
		core := m.cores[ch.comp]
		return fmt.Sprintf("core%d load %v", ch.comp, m.lines[core.prog[core.pc].li])
	case chStore:
		core := m.cores[ch.comp]
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
		m.pcus[ch.comp].events.FireNth(int(ch.idx))
	case chFireBank:
		m.banks[ch.comp].events.FireNth(int(ch.idx))
	case chLoad:
		core := m.cores[ch.comp]
		m.stimLoad(core, core.prog[core.pc])
	case chStore:
		core := m.cores[ch.comp]
		m.stimStore(core, core.prog[core.pc])
	case chLock:
		m.stimLock(m.cores[ch.comp], int(ch.idx))
	case chLift:
		m.stimLift(m.cores[ch.comp], int(ch.idx))
	}
}

// deliver hands net[i] to its destination endpoint.
func (m *Model) deliver(i int) {
	nm := m.net[i]
	m.net = append(m.net[:i], m.net[i+1:]...)
	if int(nm.Dst) < m.cfg.Cores {
		m.pcus[nm.Dst].Receive(0, nm)
		return
	}
	m.banks[int(nm.Dst)-m.cfg.Cores].Receive(0, nm)
}

// stimLoad issues the core's next load as the SoS load. A structural
// stall (no MSHR) leaves the state unchanged; a hit binds immediately.
func (m *Model) stimLoad(c *modelCore, op modelOp) {
	line := m.lines[op.li]
	token := uint64(c.pc*100 + op.li)
	res := m.pcus[c.id].Load(0, token, line.Base(), true)
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
	if m.pcus[c.id].StoreWrite(0, line.Base(), mem.Word(v)) {
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
		m.pcus[c.id].LockdownLifted(0, m.lines[li])
	}
}

// describeEvent renders a scheduled event-queue argument. Every deferred
// action in the coherence package is scheduled as a known argument
// struct; an unknown type means a closure snuck in and would hide state
// from the fingerprint, so it is a hard error.
func (m *Model) describeEvent(arg any) string {
	switch a := arg.(type) {
	case *pcuSend:
		return "send " + m.msgDesc(&a.m, a.dst)
	case *bankSend:
		return "send " + m.msgDesc(&a.m, a.dst)
	case *bankRetry:
		return "retry " + m.msgDesc(&a.m, a.b.id)
	case *bankFetchDone:
		return fmt.Sprintf("fetch-done %v", a.dl.line)
	case *bankRequeue:
		return "requeue " + m.msgDesc(a.m, a.b.id)
	case *bankLeaseExpire:
		return fmt.Sprintf("lease-expire %v", a.line)
	case *pcuLeaseExpire:
		return fmt.Sprintf("lease-expire %v", a.line)
	}
	panic(fmt.Sprintf("model: unfingerprintable pending event %T", arg))
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
	ch := cs[i]
	func() {
		defer func() {
			if r := recover(); r != nil {
				m.fail(fmt.Sprintf("panic: %v", r))
			}
		}()
		m.applyChoice(ch)
	}()
	if m.violation == "" {
		m.checkSWMR()
	}
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
		for c, p := range m.pcus {
			e := p.l2.Lookup(line)
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
	for _, c := range m.cores {
		if c.pc < len(c.prog) || c.waitLoad {
			return false
		}
		for li := range c.locked {
			if c.locked[li] {
				return false
			}
		}
	}
	for _, p := range m.pcus {
		if !p.Quiescent() {
			return false
		}
	}
	for _, b := range m.banks {
		if !b.Quiescent() {
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
	for _, b := range m.banks {
		b.CheckInvariants()
	}
	for li, line := range m.lines {
		want := m.latest[li]
		ownerVersion := uint64(0)
		hasOwner := false
		for c, p := range m.pcus {
			e := p.l2.Lookup(line)
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

// memWord reads line's word 0 from backing memory.
func (m *Model) memWord(line mem.Line) uint64 {
	d := m.memory.ReadLine(line)
	return uint64(d.Get(line.Base()))
}

// bankLine finds the live directory entry for line, if any.
func (m *Model) bankLine(line mem.Line) *dirLine {
	for _, b := range m.banks {
		if dl := b.lines[line]; dl != nil {
			return dl
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------

// fpBool appends a bool as one byte.
func fpBool(b []byte, v bool) []byte {
	if v {
		return append(b, '1')
	}
	return append(b, '0')
}

// fpInt appends a decimal integer plus a separator. Fingerprint values
// are almost always tiny non-negative ints (endpoints, types, versions),
// so the two-digit fast path skips strconv's general machinery.
func fpInt(b []byte, v int64) []byte {
	if v >= 0 && v < 100 {
		if v >= 10 {
			b = append(b, byte('0'+v/10))
		}
		return append(b, byte('0'+v%10), ',')
	}
	return append(strconv.AppendInt(b, v, 10), ',')
}

// msgKey appends a protocol message's canonical serialization. It is the
// fast (fmt-free) counterpart of msgDesc: exploration fingerprints every
// transition, so this path must not allocate per field.
func (m *Model) msgKey(b []byte, pm *Msg, dst network.Endpoint) []byte {
	b = fpInt(b, int64(pm.Type))
	b = fpInt(b, int64(pm.Line))
	b = fpInt(b, int64(pm.Src))
	b = fpInt(b, int64(dst))
	b = fpInt(b, int64(pm.Requester))
	b = fpInt(b, int64(pm.AckCount))
	b = fpBool(b, pm.Excl)
	b = fpBool(b, pm.Eviction)
	b = fpBool(b, pm.Upgrade)
	b = fpBool(b, pm.Stale)
	if pm.HasData {
		b = append(b, 'v')
		b = fpInt(b, int64(pm.Data[0]))
	}
	return b
}

// eventKey appends a scheduled event-queue argument's canonical
// serialization (fast counterpart of describeEvent). An unknown type
// means a closure snuck in and would hide state from the fingerprint,
// so it is a hard error.
func (m *Model) eventKey(b []byte, arg any) []byte {
	switch a := arg.(type) {
	case *pcuSend:
		return m.msgKey(append(b, 'p'), &a.m, a.dst)
	case *bankSend:
		return m.msgKey(append(b, 'b'), &a.m, a.dst)
	case *bankRetry:
		return m.msgKey(append(b, 'r'), &a.m, a.b.id)
	case *bankFetchDone:
		return fpInt(append(b, 'f'), int64(a.dl.line))
	case *bankRequeue:
		return m.msgKey(append(b, 'q'), a.m, a.b.id)
	case *bankLeaseExpire:
		return fpInt(append(b, 'L'), int64(a.line))
	case *pcuLeaseExpire:
		// The expiry stamp is excluded: the model runs at now=0, so every
		// stamp is the same constant (leaseSpan of zero) and carries no
		// semantic information beyond the timer's presence.
		return fpInt(append(b, 'x'), int64(a.line))
	}
	panic(fmt.Sprintf("model: unfingerprintable pending event %T", arg))
}

// Fingerprint serializes all semantic state canonically: map contents in
// line order, event multisets and the network multiset sorted, LRU as
// per-set rank. Excluded as non-semantic: stats, cycle stamps (time is
// abstracted), raw LRU ticks, event (at, seq) keys, and the L1 presence
// filter (it only modulates hit latency, never protocol behaviour).
func (m *Model) Fingerprint() string { return string(m.FingerprintBytes()) }

// FingerprintBytes is Fingerprint without the string allocation; the
// returned slice aliases the model's scratch buffer and is valid only
// until the next fingerprint call on the same model.
func (m *Model) FingerprintBytes() []byte {
	b := m.fpScratch[:0]
	for _, c := range m.cores {
		b = append(b, 'c')
		b = fpInt(b, int64(c.pc))
		b = fpBool(b, c.waitLoad)
		b = fpInt(b, int64(c.locksUsed))
		for li := range c.locked {
			b = fpBool(b, c.locked[li])
			b = fpBool(b, c.seen[li])
			b = fpInt(b, int64(c.observed[li]))
		}
	}
	b = append(b, 'v')
	for li := range m.lines {
		b = fpInt(b, int64(m.latest[li]))
		b = fpInt(b, int64(m.memWord(m.lines[li])))
	}
	for _, p := range m.pcus {
		b = append(b, 'p')
		for _, line := range m.lines {
			if e := p.l2.Lookup(line); e != nil && e.Valid() {
				b = append(b, 'l')
				b = fpInt(b, int64(line))
				b = fpInt(b, int64(e.State))
				b = fpBool(b, e.Dirty)
				b = fpInt(b, int64(e.Data.Get(line.Base())))
				b = fpInt(b, int64(p.l2.LRURank(e)))
			}
			for _, ms := range p.mshrs.LookupAll(line) {
				txn := ms.Payload.(*pcuTxn)
				b = append(b, 'm')
				b = fpInt(b, int64(line))
				b = fpBool(b, ms.Reserved)
				b = fpBool(b, txn.write)
				b = fpBool(b, txn.upgrade)
				b = fpBool(b, txn.lostLine)
				b = fpBool(b, txn.blocked)
				b = fpBool(b, txn.atomicOnly)
				b = fpBool(b, txn.gotGrant)
				b = fpInt(b, int64(txn.acksNeeded))
				b = fpInt(b, int64(txn.acksGot))
				b = fpBool(b, txn.hasData)
				b = fpInt(b, int64(txn.data.Get(line.Base())))
				b = fpInt(b, int64(len(txn.loads)))
				b = fpInt(b, int64(len(txn.atomics)))
			}
			if wb := p.wbBuf[line]; wb != nil {
				b = append(b, 'w')
				b = fpInt(b, int64(line))
				b = fpBool(b, wb.dirty)
				b = fpBool(b, wb.staleAck)
				b = fpBool(b, wb.servedFwd)
				b = fpInt(b, int64(wb.data.Get(line.Base())))
			}
			if _, leased := p.leases[line]; leased {
				// Presence only: at now=0 every lease stamp is the same
				// constant, so the stamp itself is non-semantic (the
				// pending expiry timer is fingerprinted as an event).
				b = append(b, 'L')
				b = fpInt(b, int64(line))
			}
		}
		b = m.eventMultiset(b, &p.events)
	}
	for _, bank := range m.banks {
		b = append(b, 'b')
		for _, line := range m.lines {
			if dl := bank.lines[line]; dl != nil {
				b = m.dirLineKey(append(b, 'l'), bank, dl)
			}
			if dl := bank.evbuf[line]; dl != nil {
				b = m.dirLineKey(append(b, 'e'), bank, dl)
			}
			if n := bank.earlyDelayed[line]; n != 0 {
				b = append(b, 'd')
				b = fpInt(b, int64(line))
				b = fpInt(b, int64(n))
			}
		}
		b = m.eventMultiset(b, &bank.events)
	}
	// Network multiset: serialize each message, then sort the per-message
	// keys so delivery-order-equivalent states coincide.
	b = append(b, 'n')
	kb, offs := m.kaBuf[:0], m.kaOffs[:0]
	for _, nm := range m.net {
		start := int32(len(kb))
		kb = m.msgKey(kb, nm.Payload.(*Msg), nm.Dst)
		offs = append(offs, start, int32(len(kb)))
	}
	b = appendSortedKeys(b, kb, offs)
	m.kaBuf, m.kaOffs = kb, offs
	m.fpScratch = b
	return b
}

// appendSortedKeys appends the keys serialized in kb (as start/end
// offset pairs in offs) to b in sorted order, ';'-terminated. Sorting
// offset spans in an arena instead of []string keeps the fingerprint
// hot path (one call per multiset per serialized state) allocation-free.
func appendSortedKeys(b, kb []byte, offs []int32) []byte {
	for i := 2; i < len(offs); i += 2 {
		for j := i; j > 0 && bytes.Compare(kb[offs[j]:offs[j+1]], kb[offs[j-2]:offs[j-1]]) < 0; j -= 2 {
			offs[j], offs[j-2] = offs[j-2], offs[j]
			offs[j+1], offs[j-1] = offs[j-1], offs[j+1]
		}
	}
	for i := 0; i < len(offs); i += 2 {
		b = append(b, kb[offs[i]:offs[i+1]]...)
		b = append(b, ';')
	}
	return b
}

// dirLineKey serializes one directory entry.
func (m *Model) dirLineKey(b []byte, bank *Bank, dl *dirLine) []byte {
	b = fpInt(b, int64(dl.line))
	b = fpInt(b, int64(dl.kind))
	for _, s := range dl.sharers {
		b = fpInt(b, int64(s))
	}
	b = append(b, 'o')
	b = fpBool(b, dl.hasOwner)
	if dl.hasOwner {
		b = fpInt(b, int64(dl.owner))
	}
	b = fpBool(b, dl.dataValid)
	b = fpBool(b, dl.dirty)
	b = fpInt(b, int64(dl.data.Get(dl.line.Base())))
	b = fpBool(b, dl.inEvBuf)
	if t := dl.txn; t != nil {
		b = append(b, 't')
		b = fpBool(b, t.write)
		b = fpBool(b, t.eviction)
		b = fpInt(b, int64(t.requester))
		b = fpBool(b, t.grantExcl)
		b = fpBool(b, t.fwd)
		b = fpBool(b, t.gotOwnerData)
		b = fpBool(b, t.gotUnblock)
		b = fpInt(b, int64(t.oldOwner))
		b = fpInt(b, int64(t.acksPending))
		b = fpInt(b, int64(t.delayedPending))
		b = fpBool(b, t.hinted)
	}
	if len(dl.pending) > 0 {
		b = append(b, 'q')
		for _, pm := range dl.pending {
			b = m.msgKey(b, pm, bank.id)
			b = append(b, ';')
		}
	}
	return b
}

// eventMultiset appends a component's pending events as a sorted
// multiset of serialized arguments.
func (m *Model) eventMultiset(b []byte, q *sim.EventQueue) []byte {
	b = append(b, 'E')
	n := q.Len()
	if n == 0 {
		return b
	}
	kb, offs := m.kaBuf[:0], m.kaOffs[:0]
	for i := 0; i < n; i++ {
		start := int32(len(kb))
		kb = m.eventKey(kb, q.ArgAt(i))
		offs = append(offs, start, int32(len(kb)))
	}
	b = appendSortedKeys(b, kb, offs)
	m.kaBuf, m.kaOffs = kb, offs
	return b
}

// ---------------------------------------------------------------------
// Diagnosis helpers for counterexample rendering
// ---------------------------------------------------------------------

// SetTrace installs a dispatch observer on every component: each table
// firing is reported as "<component> (State, Event)" — the same
// dispatch-stream format the trace hooks emit in choreography tests.
func (m *Model) SetTrace(hook func(string)) {
	for i, b := range m.banks {
		i, b := i, b
		if hook == nil {
			b.trace = nil
			continue
		}
		b.trace = func(st dirState, ev dirEvent) {
			hook(fmt.Sprintf("bank%d (%v, %v)", i, st, ev))
		}
	}
	for i, p := range m.pcus {
		i, p := i, p
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
	for i, p := range m.pcus {
		fmt.Fprintf(&sb, "core%d %s", i, p.DumpState())
	}
	for i, b := range m.banks {
		fmt.Fprintf(&sb, "bank%d %s", i, b.DumpState())
	}
	for _, nm := range m.net {
		fmt.Fprintf(&sb, "in flight: %s\n", m.msgDesc(nm.Payload.(*Msg), nm.Dst))
	}
	for _, c := range m.cores {
		fmt.Fprintf(&sb, "core%d pc=%d/%d waitLoad=%v locks=%v\n",
			c.id, c.pc, len(c.prog), c.waitLoad, c.locked)
	}
	return sb.String()
}

// Stats counters the explorer reports.
func (m *Model) NumCores() int { return m.cfg.Cores }
