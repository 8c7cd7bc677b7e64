package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"wbsim/internal/isa"
	"wbsim/internal/mem"
)

// stepBenchProgram builds a loop mixing shared-line loads, stores, and
// ALU work, with an iteration count far beyond any realistic b.N so the
// machine never drains mid-measurement.
func stepBenchProgram(id int) *isa.Program {
	b := isa.NewBuilder(fmt.Sprintf("stepbench.%d", id))
	b.MovImm(15, mem.Word(1)<<40)
	outer := b.Here()
	for i := 0; i < 8; i++ {
		b.MovImm(5, mem.Word(0x10000+((id+i)%8)*mem.LineBytes))
		b.Load(1, 5, 0)
		b.ALU(isa.FnAdd, 2, 2, 1)
		b.Store(5, 0, 2)
	}
	b.ALUI(isa.FnSub, 15, 15, 1)
	b.BranchI(isa.FnNE, 15, 0, outer)
	b.Halt()
	return b.Program()
}

// BenchmarkSystemStep measures one Step of a busy 4-core system — the
// simulator's innermost loop, with every component active and sharing
// lines. One iteration is one simulated cycle, though Step credits the
// tick of a core that is idle that cycle instead of executing it.
func BenchmarkSystemStep(b *testing.B) {
	progs := make([]*isa.Program, 4)
	for i := range progs {
		progs[i] = stepBenchProgram(i)
	}
	sys := NewSystem(SmallConfig(4, OoOWB), progs)
	for i := 0; i < 20000; i++ { // past cold caches and waiter-list growth
		sys.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
	b.StopTimer()
	if sys.Done() {
		b.Fatal("benchmark program terminated; its loop is too short")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sim-cycles/sec")
}

// BenchmarkSystemStepIdle measures one Step of a 4-core system whose
// cores are all stalled on cold misses: the stretch in which every core
// is idle and Step credits its tick instead of executing it, paid for
// cycle by cycle. Memory answers after 2^30 cycles and the watchdog is
// off, so the stretch outlasts any b.N.
func BenchmarkSystemStepIdle(b *testing.B) {
	progs := make([]*isa.Program, 4)
	for i := range progs {
		progs[i] = stallProgram(mem.Addr(0x10040 * (i + 1)))
	}
	cfg := SmallConfig(4, OoOWB)
	cfg.Mem.MemLatency = 1 << 30
	cfg.Watchdog.Disable = true
	sys := NewSystem(cfg, progs)
	for i := 0; i < 100; i++ { // past the misses' issue
		sys.Step()
	}
	skips := sys.idleSkips
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
	b.StopTimer()
	if n := sys.idleSkips - skips; n != 4*uint64(b.N) {
		b.Fatalf("Step credited %d of %d core ticks; the cores are not idle", n, 4*b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sim-cycles/sec")
}

// TestSystemStepZeroAllocWhenDrained pins the steady-state allocation
// invariant of the scheduler: stepping a system whose cores have all
// halted and drained must not allocate. This is the state in which Step
// credits every core's tick instead of executing it, so any allocation
// here is both a perf bug and a hint that a "drained" tick still does
// real work.
func TestSystemStepZeroAllocWhenDrained(t *testing.T) {
	b := isa.NewBuilder("drain")
	b.MovImm(1, 0x2000)
	b.MovImm(2, 7)
	b.Store(1, 0, 2)
	b.Load(3, 1, 0)
	b.Halt()
	sys := NewSystem(SmallConfig(2, OoOWB), []*isa.Program{b.Program(), haltProgram()})
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(512, sys.Step); allocs != 0 {
		t.Fatalf("drained System.Step allocates %.1f objects/cycle, want 0", allocs)
	}
}

// TestSystemStepZeroAllocBusyCore pins the core's steady-state allocation
// invariant: once warmed up, a core running a loop that stays in its own
// cache — with data-dependent branch mispredicts and store-to-load
// forwarding — executes without allocating, because its instruction
// window, event wheel and commit blockers are recycled. It runs under
// out-of-order commit and under the in-order commit of Figure 9. It
// counts mallocs directly: AllocsPerRun truncates to a whole number per
// run, so one allocation every few dozen cycles would read as zero.
func TestSystemStepZeroAllocBusyCore(t *testing.T) {
	b := isa.NewBuilder("busy-core")
	b.MovImm(1, 0x1000)
	b.MovImm(6, 0x2545F491)       // xorshift state
	b.MovImm(15, mem.Word(1)<<40) // iterations
	loop := b.Here()
	b.ALUI(isa.FnShl, 7, 6, 13)
	b.ALU(isa.FnXor, 6, 6, 7)
	b.ALUI(isa.FnShr, 7, 6, 7)
	b.ALU(isa.FnXor, 6, 6, 7)
	b.ALUI(isa.FnShl, 7, 6, 17)
	b.ALU(isa.FnXor, 6, 6, 7)
	b.ALUI(isa.FnAnd, 3, 6, 1)
	skip := b.NewLabel()
	b.BranchI(isa.FnEQ, 3, 0, skip) // random direction: mispredicts half the time
	b.ALUI(isa.FnAdd, 2, 2, 1)
	b.Bind(skip)
	b.Store(1, 0, 2)
	b.Load(4, 1, 0) // forwarded from the store above
	b.ALU(isa.FnAdd, 5, 5, 4)
	b.ALUI(isa.FnSub, 15, 15, 1)
	b.BranchI(isa.FnNE, 15, 0, loop)
	b.Halt()
	prog := b.Program()

	for _, v := range []Variant{OoOWB, InOrderWB} {
		t.Run(string(v), func(t *testing.T) {
			sys := NewSystem(SmallConfig(1, v), []*isa.Program{prog})
			for i := 0; i < 20000; i++ {
				sys.Step()
			}
			c := sys.Cores[0]
			pre := c.Stats
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 10000; i++ {
				sys.Step()
			}
			runtime.ReadMemStats(&after)
			st := c.Stats
			if st.SquashBranch == pre.SquashBranch || st.Forwards == pre.Forwards || st.Committed == pre.Committed {
				t.Fatalf("measured steps lack mispredicts, forwards or commits — test is vacuous: %+v", st)
			}
			if n := after.Mallocs - before.Mallocs; n != 0 {
				sites := allocationSites(func() {
					for i := 0; i < 10000; i++ {
						sys.Step()
					}
				})
				t.Fatalf("busy core allocated %d objects in 10000 System.Steps, want 0; the same window repeated with every allocation profiled allocated at:\n%s", n, sites)
			}
		})
	}
}

// allocationSites runs fn with every allocation profiled and renders
// the stacks that allocated during it, most objects first, or says that
// nothing did.
func allocationSites(fn func()) string {
	before := allocCounts()
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	fn()
	runtime.MemProfileRate = old
	after := allocCounts()
	type site struct {
		n     int64
		stack string
	}
	var sites []site
	for stack, n := range after {
		if strings.Contains(stack, "core.allocCounts") {
			continue // the profile reading itself
		}
		if d := n - before[stack]; d > 0 {
			sites = append(sites, site{d, stack})
		}
	}
	if len(sites) == 0 {
		return "  nothing (the allocation did not recur)"
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].n != sites[j].n {
			return sites[i].n > sites[j].n
		}
		return sites[i].stack < sites[j].stack
	})
	var b strings.Builder
	for _, s := range sites {
		fmt.Fprintf(&b, "%d objects at\n%s", s.n, s.stack)
	}
	return b.String()
}

// allocCounts returns the allocated-object count of every stack in the
// heap profile, keyed by the rendered stack. The profile publishes an
// allocation only after later collections, so it collects first.
func allocCounts() map[string]int64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	out := make(map[string]int64, n)
	for _, r := range recs[:n] {
		var b strings.Builder
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			fmt.Fprintf(&b, "  %s %s:%d\n", f.Function, f.File, f.Line)
			if !more {
				break
			}
		}
		out[b.String()] += r.AllocObjects
	}
	return out
}
