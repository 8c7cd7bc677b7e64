package core

import (
	"fmt"
	"reflect"
	"testing"

	"wbsim/internal/faults"
	"wbsim/internal/isa"
	"wbsim/internal/sim"
)

// TestIdleSkipMatchesCycleAccurate is the determinism gate for the
// event-driven kernel: running with the per-core idle skip in Step (the
// default) must produce *exactly* the run that cycle-accurate stepping
// produces — same final cycle, same Results down to every stall and
// squash counter, same architectural registers — across every registered
// variant, fault plans, and random programs. The skip is only allowed to
// credit ticks it can prove are replays; any divergence here means it
// skipped a tick it couldn't. Every subtest must also see the skip fire,
// so the comparison never passes vacuously.
func TestIdleSkipMatchesCycleAccurate(t *testing.T) {
	plans := []*faults.Plan{nil}
	for _, p := range faults.Catalog() {
		p := p
		plans = append(plans, &p)
	}
	seeds := []uint64{1, 2}
	if testing.Short() {
		plans = plans[:2]
		seeds = seeds[:1]
	}

	for _, v := range AllVariants() {
		for _, plan := range plans {
			for _, seed := range seeds {
				name := "none"
				if plan != nil {
					name = plan.Name
				}
				// skinny-cache shrinks the cache below what four random
				// working sets can share (the machine legitimately runs out
				// of eviction victims), so that plan keeps the historical
				// two-core workload.
				cores := 4
				if name == "skinny-cache" {
					cores = 2
				}
				t.Run(fmt.Sprintf("%v/%s/seed%d", v, name, seed), func(t *testing.T) {
					run := func(accurate bool) (sim.Cycle, Results, [16]uint64, uint64) {
						rng := sim.NewRand(9000 + seed)
						progs := make([]*isa.Program, cores)
						for i := range progs {
							progs[i] = randomProgram(rng, i)
						}
						cfg := SmallConfig(cores, v)
						cfg.Seed = seed
						cfg.Faults = plan
						cfg.CycleAccurate = accurate
						sys := NewSystem(cfg, progs)
						cycles, err := sys.Run()
						if err != nil {
							t.Fatalf("accurate=%v: %v", accurate, err)
						}
						var regs [16]uint64
						for r := 1; r < 16; r++ {
							for i := range sys.Cores {
								regs[r] ^= uint64(sys.Cores[i].Reg(isa.Reg(r))) << i
							}
						}
						return cycles, sys.Collect(), regs, sys.idleSkips
					}
					accCycles, accRes, accRegs, accSkips := run(true)
					cycles, res, regs, skips := run(false)
					if accSkips != 0 {
						t.Errorf("cycle-accurate run skipped %d core ticks", accSkips)
					}
					if skips == 0 {
						t.Error("the per-core idle skip never fired")
					}
					if cycles != accCycles {
						t.Errorf("idle-skip cycles: %d, cycle-accurate %d", cycles, accCycles)
					}
					// Transition fire counts must match exactly too; compare
					// them first, then the scalar counters by value.
					if !reflect.DeepEqual(res.Coverage, accRes.Coverage) {
						t.Errorf("idle-skip transition coverage diverges:\ngot:            %v\ncycle-accurate: %v",
							res.Coverage, accRes.Coverage)
					}
					want := accRes
					res.Coverage, want.Coverage = nil, nil
					if res != want {
						t.Errorf("idle-skip results diverge:\ngot:            %+v\ncycle-accurate: %+v", res, want)
					}
					if regs != accRegs {
						t.Error("idle-skip: architectural registers diverge")
					}
				})
			}
		}
	}
}

// TestFastForwardObservesWatchdog checks that skipping idle core ticks
// does not hide a hang from the watchdog: a run that hangs must trip at
// the same cycle, with the same report, with and without the idle skip.
// (Hang detection is the one consumer of "wasted" idle ticks, so it is
// the easiest thing for an idle skip to break.) Two hangs are checked:
// cores spinning on an L1 hit, which stay busy, and cores stalled on a
// cold miss under a StallBound below the memory latency, which sit
// idle-stable across watchdog checkpoints until the trip.
func TestFastForwardObservesWatchdog(t *testing.T) {
	// An intentionally unfinishable program: spin on a flag no one sets.
	b := isa.NewBuilder("spin")
	b.MovImm(1, 0x3000)
	loop := b.Here()
	b.Load(2, 1, 0)
	b.BranchI(isa.FnEQ, 2, 0, loop)
	b.Halt()

	cases := []struct {
		name  string
		progs []*isa.Program
		cfg   func(*Config)
	}{
		{"spin", []*isa.Program{b.Program(), b.Program()}, func(cfg *Config) { cfg.MaxCycles = 60000 }},
		{"idle", []*isa.Program{stallProgram(0x10040), stallProgram(0x20080)}, func(cfg *Config) {
			cfg.Watchdog = faults.WatchdogConfig{StallBound: 100, CheckPeriod: 16, TransientEvery: 1}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(accurate bool) (sim.Cycle, string, uint64) {
				cfg := SmallConfig(len(tc.progs), OoOWB)
				tc.cfg(&cfg)
				cfg.CycleAccurate = accurate
				sys := NewSystem(cfg, tc.progs)
				cycles, err := sys.Run()
				if err == nil {
					t.Fatalf("accurate=%v: the hanging programs finished", accurate)
				}
				return cycles, err.Error(), sys.idleSkips
			}
			accCycles, accErr, _ := run(true)
			cycles, errStr, skips := run(false)
			if cycles != accCycles || errStr != accErr {
				t.Errorf("hang detection diverges:\ngot:            cycle %d, %s\ncycle-accurate: cycle %d, %s",
					cycles, errStr, accCycles, accErr)
			}
			if skips == 0 {
				t.Error("the per-core idle skip never fired")
			}
		})
	}
}
