package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"wbsim/internal/isa"
	"wbsim/internal/mem"
	"wbsim/internal/network"
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
// counts the objects the window allocates on the simulator's stacks
// (machineAllocs): AllocsPerRun truncates to a whole number per run, so
// one allocation every few dozen cycles would read as zero.
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
			n, sites := machineAllocs(t, func() {
				for i := 0; i < 10000; i++ {
					sys.Step()
				}
			})
			st := c.Stats
			if st.SquashBranch == pre.SquashBranch || st.Forwards == pre.Forwards || st.Committed == pre.Committed {
				t.Fatalf("measured steps lack mispredicts, forwards or commits — test is vacuous: %+v", st)
			}
			if n != 0 {
				t.Fatalf("busy core allocated %d objects in 10000 System.Steps, want 0, at:\n%s", n, sites)
			}
		})
	}
}

// pingPongProgram loops over a fixed set of four shared lines, loading
// each and storing to the two whose index has the parity of id. Two
// cores running it hand every line back and forth: each line has one
// writer, whose stores invalidate the other core's copy, and two
// readers, whose loads miss on the writer's owned copy.
func pingPongProgram(id int) *isa.Program {
	b := isa.NewBuilder(fmt.Sprintf("pingpong.%d", id))
	b.MovImm(15, mem.Word(1)<<40) // iterations
	loop := b.Here()
	for i := 0; i < 4; i++ {
		b.MovImm(5, mem.Word(0x10000+i*mem.LineBytes))
		b.Load(1, 5, 0)
		if i%2 == id {
			b.ALUI(isa.FnAdd, 1, 1, 1)
			b.Store(5, 0, 1)
		}
	}
	b.ALUI(isa.FnSub, 15, 15, 1)
	b.BranchI(isa.FnNE, 15, 0, loop)
	b.Halt()
	return b.Program()
}

// TestSystemStepZeroAllocBusyCoherence is the coherence twin of
// TestSystemStepZeroAllocBusyCore: once warmed up, two cores that
// ping-pong shared lines — read and write misses, grants, invalidations,
// requests parked behind busy directory entries — step without
// allocating, because mesh envelopes return to their sender's free list
// after delivery and PCU and directory transactions live by value in
// entries whose storage is reused. The warm-up touches every cache set
// and directory entry the lines use and grows every free list and
// queue to its working size.
func TestSystemStepZeroAllocBusyCoherence(t *testing.T) {
	for _, v := range []Variant{OoOWB, InOrderWB} {
		t.Run(string(v), func(t *testing.T) {
			sys := NewSystem(SmallConfig(2, v), []*isa.Program{pingPongProgram(0), pingPongProgram(1)})
			for i := 0; i < 20000; i++ {
				sys.Step()
			}
			type counters struct{ getS, getX, invs, responses uint64 }
			read := func() (c counters) {
				for _, b := range sys.Banks {
					c.getS += b.Stats.GetS
					c.getX += b.Stats.GetX
				}
				for _, p := range sys.PCUs {
					c.invs += p.Stats.InvsReceived
				}
				// Grants travel on the response network.
				c.responses = sys.Mesh.Stats().PerVNet[network.VNetResponse]
				return c
			}
			pre := read()
			n, sites := machineAllocs(t, func() {
				for i := 0; i < 10000; i++ {
					sys.Step()
				}
			})
			post := read()
			if post.getS == pre.getS || post.getX == pre.getX || post.invs == pre.invs || post.responses == pre.responses {
				t.Fatalf("measured steps lack GetS, GetX, invalidations or grants — test is vacuous: before %+v, after %+v", pre, post)
			}
			if n != 0 {
				t.Fatalf("ping-ponging cores allocated %d objects in 10000 System.Steps, want 0, at:\n%s", n, sites)
			}
		})
	}
}

// machineAllocs runs fn with every allocation profiled and returns the
// number of objects allocated on stacks with a wbsim frame — the
// machine's own — with those stacks rendered, most objects first. The
// rest is the runtime's background work (the scavenger) or the test
// harness; a process-wide count would see it too, which made a 0 budget
// flaky. It is logged but not counted.
func machineAllocs(t *testing.T, fn func()) (int64, string) {
	t.Helper()
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
	var ours, foreign []site
	var n int64
	for stack, c := range after {
		if strings.Contains(stack, "core.allocCounts") {
			continue // the profile reading itself
		}
		d := c - before[stack]
		if d <= 0 {
			continue
		}
		if strings.Contains("\n"+stack, "\n  wbsim/") {
			ours = append(ours, site{d, stack})
			n += d
		} else {
			foreign = append(foreign, site{d, stack})
		}
	}
	render := func(sites []site) string {
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
	if len(foreign) > 0 {
		t.Logf("not counted, allocated outside the machine during the window:\n%s", render(foreign))
	}
	return n, render(ours)
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
