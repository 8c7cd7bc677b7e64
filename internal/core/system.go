package core

import (
	"fmt"
	"sort"

	"wbsim/internal/coherence"
	"wbsim/internal/cpu"
	"wbsim/internal/faults"
	"wbsim/internal/isa"
	"wbsim/internal/mem"
	"wbsim/internal/network"
	"wbsim/internal/sim"
)

// System is an assembled machine running one program per core.
type System struct {
	Cfg    Config
	Clock  sim.Clock
	Mesh   *network.Mesh
	Memory *mem.Memory
	Cores  []*cpu.Core
	PCUs   []*coherence.PCU
	Banks  []*coherence.Bank

	rng *sim.Rand

	// stepHook, when set (tests), runs at the top of every Step — used to
	// inject panics and probe the recover boundary.
	stepHook func(sim.Cycle)

	// idleSkips counts core ticks Step credited instead of executing
	// (tests read it).
	idleSkips uint64
}

// NewSystem builds a machine. programs must have exactly Cfg.Cores
// entries (use an empty program — immediate halt — for idle cores).
func NewSystem(cfg Config, programs []*isa.Program) *System {
	if len(programs) != cfg.Cores {
		panic(fmt.Sprintf("core: %d programs for %d cores", len(programs), cfg.Cores))
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 200_000_000
	}
	rng := sim.NewRand(cfg.Seed)
	netCfg := cfg.Net
	netCfg.JitterMax = cfg.JitterMax
	cfg.Faults.ApplyNet(&netCfg)
	mesh := network.NewMesh(netCfg, rng.Fork(0xae5))
	memory := mem.NewMemory()

	s := &System{Cfg: cfg, Mesh: mesh, Memory: memory, rng: rng}

	n := cfg.Cores
	home := func(l mem.Line) network.Endpoint {
		return network.Endpoint(n + int(uint64(l)%uint64(n)))
	}
	memParams := cfg.Mem
	cfg.Faults.ApplyMem(&memParams)

	coreCfg := CoreConfig(cfg.Class)
	if cfg.CoreOverride != nil {
		coreCfg = *cfg.CoreOverride
	}
	cfg.Faults.ApplyCore(&coreCfg)
	spec, err := cfg.Variant.Spec()
	if err != nil {
		panic(err)
	}
	spec.Apply(&coreCfg)
	// Resolve the effective protocol: Params may flip the shared-eviction
	// flavor under the variant's nominal protocol (base → base-ns).
	proto := coherence.ProtocolFor(spec.Protocol.Mode, memParams.NonSilentSharedEvictions)
	if proto == nil {
		panic(fmt.Sprintf("core: no registered protocol runs mode %v with NonSilentSharedEvictions=%v",
			spec.Protocol.Mode, memParams.NonSilentSharedEvictions))
	}
	if verr := proto.Validate(&memParams); verr != nil {
		panic(verr)
	}
	protoMode := proto.Mode

	routers := mesh.Routers()
	for i := 0; i < n; i++ {
		c := cpu.NewCore(i, coreCfg, programs[i])
		p := coherence.NewPCU(network.Endpoint(i), mesh, &memParams, home, c, protoMode)
		c.AttachPCU(p)
		mesh.Attach(network.Endpoint(i), i%routers, p)
		s.Cores = append(s.Cores, c)
		s.PCUs = append(s.PCUs, p)

		b := coherence.NewBank(network.Endpoint(n+i), mesh, &memParams, memory, protoMode)
		mesh.Attach(network.Endpoint(n+i), i%routers, b)
		s.Banks = append(s.Banks, b)
	}
	return s
}

// InitWord pre-initializes a memory word (before the run starts).
func (s *System) InitWord(addr mem.Addr, w mem.Word) {
	s.Memory.WriteWord(addr, w)
}

// ReadWord returns the architecturally current value of a word: the copy
// in the owning core's cache if some core holds the line exclusive, else
// the LLC copy if the home bank holds current data, else the memory
// image. Intended for inspecting results after a run.
func (s *System) ReadWord(addr mem.Addr) mem.Word {
	line := mem.LineOf(addr)
	for _, p := range s.PCUs {
		if p.HasWritePermission(line) {
			if w, ok := p.PeekWord(addr); ok {
				return w
			}
		}
	}
	home := int(uint64(line) % uint64(s.Cfg.Cores))
	if w, ok := s.Banks[home].PeekWord(addr); ok {
		return w
	}
	return s.Memory.ReadWord(addr)
}

// Step advances the machine one cycle. Components whose Tick would
// provably do nothing are skipped: a mesh with no arrival due, banks and
// PCUs with no deferred event due (their Tick only refreshes a
// timestamp every handler sets itself), and idle cores. A core is idle
// at now when its last executed tick was idle-stable, its PCU received
// nothing and fired nothing this cycle, and no core event or fetch
// re-enable falls due: nothing it reads has changed since that tick, so
// this one would repeat it, and CreditIdle charges it instead. PCU
// activity in an earlier cycle made the core tick in that cycle, and
// PCUs run before cores, so activity this cycle is already visible.
// stepHook and Config.CycleAccurate force every core to tick.
func (s *System) Step() {
	now := s.Clock.Advance()
	if s.stepHook != nil {
		s.stepHook(now)
	}
	if at, ok := s.Mesh.NextEventCycle(); ok && at <= now {
		s.Mesh.Tick(now)
	}
	for _, b := range s.Banks {
		if b.EventsDue(now) {
			b.Tick(now)
		}
	}
	for _, p := range s.PCUs {
		if p.EventsDue(now) {
			p.Tick(now)
		}
	}
	accurate := s.cycleAccurate()
	for i, c := range s.Cores {
		if !accurate && c.IdleStable() && !s.PCUs[i].ActiveAt(now) && !c.WakeDue(now) {
			c.CreditIdle(1)
			s.idleSkips++
			continue
		}
		c.Tick(now)
	}
}

// cycleAccurate reports whether every cycle must execute and every core
// tick in it: the CycleAccurate escape hatch, or a stepHook probing
// individual cycles.
func (s *System) cycleAccurate() bool { return s.Cfg.CycleAccurate || s.stepHook != nil }

// Done reports whether every core has halted and drained and no protocol
// activity remains.
func (s *System) Done() bool {
	for _, c := range s.Cores {
		if !c.Done() {
			return false
		}
	}
	if !s.Mesh.Quiescent() {
		return false
	}
	for _, b := range s.Banks {
		if !b.Quiescent() {
			return false
		}
	}
	return true
}

// Run executes until completion, a watchdog trip, or MaxCycles,
// returning the cycle count. A hang (commit stall, aged transient
// directory entry, or exhausted cycle budget) returns a
// *faults.SimError carrying a HangReport; an internal panic anywhere in
// the machine is contained at this boundary and returned as a
// *faults.SimError of KindPanic with the same snapshot, so one bad
// (workload, config, seed) job fails alone instead of killing the
// process running a fleet of them.
func (s *System) Run() (cycles sim.Cycle, err error) {
	defer func() {
		if r := recover(); r != nil {
			cycles = s.Clock.Now()
			err = faults.PanicError(r, s.HangReport("panic", -1, 0))
		}
	}()
	wd := faults.NewWatchdog(s.Cfg.Watchdog, len(s.Cores))
	accurate := s.cycleAccurate()
	for !s.Done() {
		now := s.Clock.Now()
		if now >= s.Cfg.MaxCycles {
			return now, faults.HangError(s.HangReport("max-cycles", -1, 0))
		}
		if wd.Due(now) {
			if err := s.checkProgress(wd, now); err != nil {
				return now, err
			}
		}
		s.Step()
		if !accurate {
			s.fastForward(wd)
		}
	}
	for _, b := range s.Banks {
		b.CheckInvariants()
	}
	for _, p := range s.PCUs {
		p.CheckInvariants()
	}
	return s.Clock.Now(), nil
}

// fastForward warps the clock over a provably inert stretch. It runs
// right after a Step, with the clock at E (the cycle just executed; the
// next loop header re-reads it). When every core's last tick was
// idle-stable — nothing fired, committed, fetched, squashed, or moved,
// and its per-cycle counter deltas matched the tick before — the machine
// can only change state at the earliest next event of some component:
// the mesh's next arrival, a bank/PCU deferred send, a core's scheduled
// completion or fetch re-enable. Every cycle strictly before that is an
// exact repeat, so the skipped core ticks are credited arithmetically
// (CreditIdle) and the clock jumps to T-1, making T the next executed
// cycle.
//
// The jump is bounded so the run loop's header observes every cycle it
// acted on before: the next watchdog-due cycle (a multiple of
// CheckPeriod) and the MaxCycles threshold are never skipped past —
// which also keeps hang and deadlock runs (no event anywhere, cores
// stalled forever) tripping at exactly the same cycle, just reached in
// CheckPeriod-sized jumps.
func (s *System) fastForward(wd *faults.Watchdog) {
	for _, c := range s.Cores {
		if !c.IdleStable() {
			return
		}
	}
	// The loop condition has not seen this cycle yet: if the run just
	// finished, warping now would inflate the reported cycle count.
	if s.Done() {
		return
	}
	now := s.Clock.Now()

	var target sim.Cycle
	haveEvent := false
	consider := func(at sim.Cycle, ok bool) {
		if ok && (!haveEvent || at < target) {
			haveEvent, target = true, at
		}
	}
	consider(s.Mesh.NextEventCycle())
	for _, b := range s.Banks {
		consider(b.NextEventCycle())
	}
	for _, p := range s.PCUs {
		consider(p.NextEventCycle())
	}
	for _, c := range s.Cores {
		consider(c.NextEventCycle(now))
	}

	// Headers skipped by a jump to T-1 are now..T-2; clamp T so no due
	// watchdog check and no MaxCycles trip falls in that range.
	t := s.Cfg.MaxCycles + 1
	if haveEvent && target < t {
		t = target
	}
	if wcfg := wd.Config(); !wcfg.Disable {
		due := now + (wcfg.CheckPeriod-now%wcfg.CheckPeriod)%wcfg.CheckPeriod
		if due+1 < t {
			t = due + 1
		}
	}
	if s.Cfg.MaxCycles+1 < t {
		t = s.Cfg.MaxCycles + 1
	}
	if t <= now+1 {
		return
	}
	skipped := uint64(t - 1 - now)
	for _, c := range s.Cores {
		c.CreditIdle(skipped)
	}
	s.Clock.FastForwardTo(t - 1)
}

// checkProgress runs one watchdog inspection: per-core commit watermarks
// every check, directory transient-state ages on the sparser cadence.
func (s *System) checkProgress(wd *faults.Watchdog, now sim.Cycle) error {
	scanTransients := wd.BeginCheck()
	for i, c := range s.Cores {
		if age, tripped := wd.ObserveCore(now, i, c.Done(), c.Stats.Committed); tripped {
			return faults.HangError(s.HangReport("commit-stall", i, age))
		}
	}
	if scanTransients {
		bound := wd.Config().TransientBound
		for _, b := range s.Banks {
			for _, t := range b.TransientLines(now) {
				if t.Age > bound {
					return faults.HangError(s.HangReport("transient-age", -1, 0))
				}
				break // entries are oldest-first; only the head can exceed
			}
		}
	}
	return nil
}

// HangReport snapshots the machine for hang/panic diagnosis: per-core
// commit-path state, transient directory entries (oldest first), and the
// in-flight message census by virtual network.
func (s *System) HangReport(reason string, stuckCore int, stallAge sim.Cycle) *faults.HangReport {
	now := s.Clock.Now()
	r := &faults.HangReport{
		Reason:    reason,
		Cycle:     now,
		MaxCycles: s.Cfg.MaxCycles,
		StuckCore: stuckCore,
		StallAge:  stallAge,
	}
	for _, c := range s.Cores {
		r.Cores = append(r.Cores, c.Snapshot())
	}
	for _, b := range s.Banks {
		r.Transients = append(r.Transients, b.TransientLines(now)...)
	}
	sort.Slice(r.Transients, func(i, j int) bool {
		if r.Transients[i].Age != r.Transients[j].Age {
			return r.Transients[i].Age > r.Transients[j].Age
		}
		if r.Transients[i].Bank != r.Transients[j].Bank {
			return r.Transients[i].Bank < r.Transients[j].Bank
		}
		return r.Transients[i].Line < r.Transients[j].Line
	})
	for _, p := range s.PCUs {
		r.PCUs = append(r.PCUs, p.WaitSnapshot())
	}
	r.NetPerVNet, r.NetInFlight = s.Mesh.InFlightCensus()
	r.Finalize()
	return r
}

// RunFor executes exactly n additional cycles (for tests that inspect
// intermediate state).
func (s *System) RunFor(n sim.Cycle) {
	for i := sim.Cycle(0); i < n; i++ {
		s.Step()
	}
}

// Results captures the aggregate statistics of a finished run.
type Results struct {
	Cycles sim.Cycle

	Committed       uint64
	CommittedLoads  uint64
	CommittedStores uint64
	CommittedOoO    uint64
	MSpecCommits    uint64

	SquashInv    uint64
	SquashEvict  uint64
	SquashAtomic uint64
	Squashed     uint64

	StallROB   uint64
	StallLQ    uint64
	StallSQ    uint64
	StallOther uint64
	CoreCycles uint64

	BlockedWrites    uint64
	UncacheableReads uint64
	WBEntries        uint64
	Nacks            uint64
	DelayedAcks      uint64
	TearoffRetries   uint64
	SoSBypasses      uint64

	NetFlits    uint64
	NetFlitHops uint64
	NetMessages uint64

	// Coverage holds the merged protocol-transition fire counts of every
	// controller in the machine (the -coverage view).
	Coverage *coherence.CoverageAgg
}

// Coverage merges the transition fire counts of every coherence
// controller in the machine into one aggregate.
func (s *System) Coverage() *coherence.CoverageAgg {
	agg := coherence.NewCoverageAgg()
	for _, p := range s.PCUs {
		agg.AddPCU(p)
	}
	for _, b := range s.Banks {
		agg.AddBank(b)
	}
	return agg
}

// Collect gathers run statistics from every component.
func (s *System) Collect() Results {
	r := Results{Cycles: s.Clock.Now()}
	for _, c := range s.Cores {
		st := c.Stats
		r.Committed += st.Committed
		r.CommittedLoads += st.CommittedLoads
		r.CommittedStores += st.CommittedStores
		r.CommittedOoO += st.CommittedOoO
		r.MSpecCommits += st.MSpecCommits
		r.SquashInv += st.SquashInv
		r.SquashEvict += st.SquashEvict
		r.SquashAtomic += st.SquashAtomic
		r.Squashed += st.Squashed
		r.StallROB += st.StallROB
		r.StallLQ += st.StallLQ
		r.StallSQ += st.StallSQ
		r.StallOther += st.StallOther
		r.CoreCycles += st.Cycles
	}
	for _, p := range s.PCUs {
		r.Nacks += p.Stats.Nacks
		r.DelayedAcks += p.Stats.DelayedAcks
		r.SoSBypasses += p.Stats.SoSBypasses
	}
	for _, c := range s.Cores {
		r.TearoffRetries += c.Stats.TearoffRetries
	}
	for _, b := range s.Banks {
		r.BlockedWrites += b.Stats.BlockedWrites
		r.UncacheableReads += b.Stats.UncacheableReads
		r.WBEntries += b.Stats.WBEntries
	}
	ns := s.Mesh.Stats()
	r.NetFlits = ns.Flits
	r.NetFlitHops = ns.FlitHops
	r.NetMessages = ns.Messages
	r.Coverage = s.Coverage()
	return r
}
